//! `batchsim` — a SLURM/PBS-like batch scheduler, simulated.
//!
//! Running a benchmark on a real HPC system means going through a job
//! scheduler: accounts and QoS, node counts derived from
//! `num_tasks`/`num_tasks_per_node`/`num_cpus_per_task`, queue waits, time
//! limits, and a generated job script. The paper's Principle 5 requires all
//! of that to be captured and reproducible; the harness therefore submits
//! real job objects to this simulated scheduler rather than shelling out.
//!
//! The simulator is a discrete-event queue over a homogeneous node pool
//! with two policies — strict FIFO and EASY backfill — plus
//! job-script rendering in both SLURM and PBS dialects.
//!
//! # Example
//!
//! ```
//! use batchsim::{JobRequest, Policy, Scheduler};
//!
//! // The paper's HPGMG configuration: 8 tasks, 2 per node, 8 cpus/task.
//! let mut sched = Scheduler::new(Policy::Backfill, 16, 128);
//! let req = JobRequest::new("hpgmg", 8, 2, 8).with_time_limit(600.0);
//! let id = sched.submit(req, 42.0).unwrap();
//! sched.run_to_completion();
//! let job = sched.job(id).unwrap();
//! assert_eq!(job.state, batchsim::JobState::Completed);
//! assert_eq!(job.allocated_nodes.len(), 4);
//! ```

mod job;
mod sched;
mod script;

pub use job::{Job, JobId, JobRequest, JobState, LayoutError};
pub use sched::{NodeEvent, Policy, Scheduler};
pub use script::render_script;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_mixed_workload() {
        let mut s = Scheduler::new(Policy::Backfill, 8, 128);
        let mut ids = Vec::new();
        for i in 0..20 {
            let tasks = 1 + (i % 4) as u32;
            let req = JobRequest::new(&format!("job{i}"), tasks, 1, 16).with_time_limit(120.0);
            ids.push(s.submit(req, 10.0 + i as f64).unwrap());
        }
        s.run_to_completion();
        for id in ids {
            assert_eq!(s.job(id).unwrap().state, JobState::Completed);
        }
        assert!(s.utilization() > 0.1);
    }

    #[test]
    fn scheduler_kind_scripts_from_catalog() {
        // Script rendering integrates with the simhpc system descriptions.
        let sys = simhpc::catalog::system("archer2").unwrap();
        let req = JobRequest::new("hpgmg", 8, 2, 8).with_qos("standard");
        let script = render_script(sys.scheduler(), &req, "hpgmg-fv 7 8");
        assert!(script.contains("#SBATCH"), "ARCHER2 is SLURM");

        let isambard = simhpc::catalog::system("isambard").unwrap();
        let script = render_script(isambard.scheduler(), &req, "hpgmg-fv 7 8");
        assert!(script.contains("#PBS"), "Isambard is PBS");
    }
}
