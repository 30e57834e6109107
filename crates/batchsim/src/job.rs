//! Jobs: requests, layout, state.

use std::fmt;

/// Unique job identifier, assigned at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The resources a job asks for — exactly ReFrame's knobs from the paper's
/// appendix: `num_tasks`, `num_tasks_per_node`, `num_cpus_per_task`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    pub name: String,
    /// Time allocation account (`-J'--account'` in the appendix).
    pub account: String,
    /// Quality of service (`--qos=standard` on ARCHER2).
    pub qos: String,
    pub num_tasks: u32,
    pub num_tasks_per_node: u32,
    pub num_cpus_per_task: u32,
    /// Wall-time limit, seconds; used by backfill as the runtime estimate.
    pub time_limit_s: f64,
}

impl JobRequest {
    pub fn new(
        name: &str,
        num_tasks: u32,
        num_tasks_per_node: u32,
        num_cpus_per_task: u32,
    ) -> JobRequest {
        JobRequest {
            name: name.to_string(),
            account: "default".to_string(),
            qos: "standard".to_string(),
            num_tasks,
            num_tasks_per_node,
            num_cpus_per_task,
            time_limit_s: 3600.0,
        }
    }

    pub fn with_account(mut self, account: &str) -> JobRequest {
        self.account = account.to_string();
        self
    }

    pub fn with_qos(mut self, qos: &str) -> JobRequest {
        self.qos = qos.to_string();
        self
    }

    pub fn with_time_limit(mut self, seconds: f64) -> JobRequest {
        self.time_limit_s = seconds;
        self
    }

    /// Number of nodes this job needs.
    pub fn nodes_needed(&self) -> u32 {
        self.num_tasks.div_ceil(self.num_tasks_per_node.max(1))
    }

    /// Cores needed on each allocated node.
    pub fn cores_per_node(&self) -> u32 {
        self.num_tasks_per_node * self.num_cpus_per_task
    }

    /// Validate against a node size; mirrors `sbatch` rejection.
    pub fn validate(&self, cores_per_node: u32) -> Result<(), LayoutError> {
        if self.num_tasks == 0 || self.num_tasks_per_node == 0 || self.num_cpus_per_task == 0 {
            return Err(LayoutError::ZeroResource);
        }
        if self.cores_per_node() > cores_per_node {
            return Err(LayoutError::NodeTooSmall {
                requested: self.cores_per_node(),
                available: cores_per_node,
            });
        }
        Ok(())
    }
}

/// Invalid resource request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    ZeroResource,
    NodeTooSmall {
        requested: u32,
        available: u32,
    },
    /// More nodes requested than the partition has.
    PartitionTooSmall {
        requested: u32,
        available: u32,
    },
    /// A dependency on a job the scheduler does not know.
    BadAccounting(String),
    /// `requeue` asked for a job that is not in a requeueable state.
    NotRequeueable(String),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::ZeroResource => write!(f, "job requests zero tasks/cpus"),
            LayoutError::NodeTooSmall {
                requested,
                available,
            } => {
                write!(
                    f,
                    "job needs {requested} cores per node but nodes have {available}"
                )
            }
            LayoutError::PartitionTooSmall {
                requested,
                available,
            } => {
                write!(
                    f,
                    "job needs {requested} nodes but the partition has {available}"
                )
            }
            LayoutError::BadAccounting(msg) => write!(f, "accounting error: {msg}"),
            LayoutError::NotRequeueable(msg) => write!(f, "cannot requeue: {msg}"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Pending,
    Running,
    Completed,
    TimedOut,
    Cancelled,
    /// A node died under the job; the node is drained, the job is
    /// requeueable (SLURM's `NODE_FAIL`).
    NodeFail,
}

/// A job inside the scheduler.
#[derive(Debug, Clone)]
pub struct Job {
    pub id: JobId,
    pub request: JobRequest,
    pub state: JobState,
    pub submit_time: f64,
    pub start_time: Option<f64>,
    pub end_time: Option<f64>,
    /// Actual runtime, seconds (what the platform model predicted).
    pub run_time_s: f64,
    /// Nodes allocated while running.
    pub allocated_nodes: Vec<u32>,
    /// Earliest simulated time the job may start (`--begin`; used for
    /// requeue backoff). Zero means immediately eligible.
    pub eligible_time: f64,
    /// Injected node failure: the job's first node dies this many seconds
    /// into the run (fault injection; `None` = healthy run).
    pub fail_after_s: Option<f64>,
    /// How many times the job has been requeued.
    pub requeues: u32,
}

impl Job {
    /// Queue wait experienced by this job.
    pub fn wait_time(&self) -> Option<f64> {
        self.start_time.map(|s| s - self.submit_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_math_matches_appendix_example() {
        // The paper: 8 tasks, 2 tasks/node, 8 cpus/task.
        let req = JobRequest::new("hpgmg", 8, 2, 8);
        assert_eq!(req.nodes_needed(), 4);
        assert_eq!(req.cores_per_node(), 16);
        assert!(req.validate(128).is_ok());
        assert!(matches!(
            req.validate(8),
            Err(LayoutError::NodeTooSmall { .. })
        ));
    }

    #[test]
    fn uneven_division_rounds_up() {
        let req = JobRequest::new("x", 7, 2, 1);
        assert_eq!(req.nodes_needed(), 4);
    }

    #[test]
    fn zero_resources_rejected() {
        assert!(JobRequest::new("x", 0, 1, 1).validate(16).is_err());
        assert!(JobRequest::new("x", 1, 1, 0).validate(16).is_err());
    }
}
