//! The discrete-event scheduler: FIFO and conservative backfill.

use crate::job::{Job, JobId, JobRequest, JobState, LayoutError};
use std::collections::BTreeMap;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Strict first-in-first-out: the queue head blocks everyone behind it.
    Fifo,
    /// EASY backfill: later jobs may run early if they cannot delay the
    /// reserved start of the queue head (using time limits as estimates).
    Backfill,
}

/// One node-pool state change, timestamped in simulated seconds. The
/// ledger is append-only and ordered by event time, so a post-mortem can
/// reconstruct exactly which nodes were out of service when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeEvent {
    /// A node failure took `node` out of service at `at`. With healing
    /// enabled, `repair_at` is the instant it returns; without, `None`
    /// (drained forever, the pre-heal behavior).
    NodeDrained {
        node: u32,
        at: f64,
        repair_at: Option<f64>,
    },
    /// A repaired node rejoined the free pool at `at`.
    NodeRepaired { node: u32, at: f64 },
}

/// A batch scheduler over one homogeneous partition.
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: Policy,
    total_nodes: u32,
    cores_per_node: u32,
    now: f64,
    next_id: u64,
    pending: Vec<Job>,
    running: Vec<Job>,
    finished: Vec<Job>,
    free_nodes: Vec<u32>,
    /// Nodes taken out of service by injected node failures.
    drained_nodes: Vec<u32>,
    /// Simulated repair time for a drained node; `None` disables healing
    /// (a drained node never returns — byte-identical to the pre-heal
    /// scheduler).
    heal_window_s: Option<f64>,
    /// Drained nodes awaiting repair: `(repair_at, node)`.
    repairing: Vec<(f64, u32)>,
    /// Ordered drain/repair ledger.
    events: Vec<NodeEvent>,
    /// Dependencies (`afterok`): job → parent job.
    dependencies: BTreeMap<JobId, JobId>,
}

impl Scheduler {
    pub fn new(policy: Policy, total_nodes: u32, cores_per_node: u32) -> Scheduler {
        Scheduler {
            policy,
            total_nodes,
            cores_per_node,
            now: 0.0,
            next_id: 1,
            pending: Vec::new(),
            running: Vec::new(),
            finished: Vec::new(),
            free_nodes: (0..total_nodes).collect(),
            drained_nodes: Vec::new(),
            heal_window_s: None,
            repairing: Vec::new(),
            events: Vec::new(),
            dependencies: BTreeMap::new(),
        }
    }

    /// Enable node healing: every node drained by an injected failure
    /// returns to the free pool `window_s` simulated seconds later, via a
    /// [`NodeEvent::NodeRepaired`] event. The window models one repair
    /// ticket for the whole partition, so callers should derive it once
    /// per system (see `simhpc::FaultInjector::repair_window_s`).
    pub fn with_heal(mut self, window_s: f64) -> Scheduler {
        self.heal_window_s = Some(window_s.max(0.0));
        self
    }

    /// The drain/repair ledger, ordered by event time.
    pub fn node_events(&self) -> &[NodeEvent] {
        &self.events
    }

    pub fn now(&self) -> f64 {
        self.now
    }

    pub fn policy(&self) -> Policy {
        self.policy
    }

    pub fn free_node_count(&self) -> u32 {
        self.free_nodes.len() as u32
    }

    /// Nodes drained by injected node failures (out of service).
    pub fn drained_nodes(&self) -> &[u32] {
        &self.drained_nodes
    }

    /// Submit a job whose true runtime (from the platform model) is
    /// `run_time_s`. Returns its id, or a layout error.
    pub fn submit(&mut self, request: JobRequest, run_time_s: f64) -> Result<JobId, LayoutError> {
        self.enqueue(request, run_time_s, None, 0.0)
    }

    /// Submit a job with an injected node failure: `fail_after_s` seconds
    /// into the run, one of its nodes dies, the job ends in
    /// [`JobState::NodeFail`], and the node is drained. `None` injects
    /// nothing (identical to [`Scheduler::submit`]).
    pub fn submit_with_fault(
        &mut self,
        request: JobRequest,
        run_time_s: f64,
        fail_after_s: Option<f64>,
    ) -> Result<JobId, LayoutError> {
        self.enqueue(request, run_time_s, fail_after_s, 0.0)
    }

    fn enqueue(
        &mut self,
        request: JobRequest,
        run_time_s: f64,
        fail_after_s: Option<f64>,
        eligible_time: f64,
    ) -> Result<JobId, LayoutError> {
        request.validate(self.cores_per_node)?;
        if request.nodes_needed() > self.total_nodes {
            return Err(LayoutError::PartitionTooSmall {
                requested: request.nodes_needed(),
                available: self.total_nodes,
            });
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.pending.push(Job {
            id,
            request,
            state: JobState::Pending,
            submit_time: self.now,
            start_time: None,
            end_time: None,
            run_time_s,
            allocated_nodes: Vec::new(),
            eligible_time,
            fail_after_s,
            requeues: 0,
        });
        self.schedule_pass();
        Ok(id)
    }

    /// Submit a job that may only start after `after` completes
    /// successfully (SLURM's `--dependency=afterok:<id>`). The harness uses
    /// this to chain the build job before the run job.
    pub fn submit_after(
        &mut self,
        request: JobRequest,
        run_time_s: f64,
        after: JobId,
    ) -> Result<JobId, LayoutError> {
        self.submit_dependent(request, run_time_s, after, None)
    }

    /// [`Scheduler::submit_after`] with an injected node failure on the
    /// dependent job (see [`Scheduler::submit_with_fault`]).
    pub fn submit_after_with_fault(
        &mut self,
        request: JobRequest,
        run_time_s: f64,
        after: JobId,
        fail_after_s: Option<f64>,
    ) -> Result<JobId, LayoutError> {
        self.submit_dependent(request, run_time_s, after, fail_after_s)
    }

    fn submit_dependent(
        &mut self,
        request: JobRequest,
        run_time_s: f64,
        after: JobId,
        fail_after_s: Option<f64>,
    ) -> Result<JobId, LayoutError> {
        if self.job(after).is_none() {
            return Err(LayoutError::BadAccounting(format!(
                "dependency on unknown job {after}"
            )));
        }
        // Register the dependency only after a successful enqueue, but
        // make sure the eager schedule_pass inside enqueue cannot start
        // the job before the dependency is known: enqueue with an
        // eligibility hold, then clear it.
        let id = self.enqueue(request, run_time_s, fail_after_s, f64::INFINITY)?;
        self.dependencies.insert(id, after);
        if let Some(job) = self.pending.iter_mut().find(|j| j.id == id) {
            job.eligible_time = 0.0;
        }
        self.schedule_pass();
        Ok(id)
    }

    /// Put a finished `NodeFail`/`TimedOut` job back in the queue
    /// (`scontrol requeue`): same id, same request, fresh run. The job
    /// becomes eligible `delay_s` seconds from now (retry backoff) and may
    /// carry a new injected fault. Drained nodes stay out of service.
    pub fn requeue(
        &mut self,
        id: JobId,
        run_time_s: f64,
        fail_after_s: Option<f64>,
        delay_s: f64,
    ) -> Result<(), LayoutError> {
        let pos = self
            .finished
            .iter()
            .position(|j| j.id == id)
            .ok_or_else(|| LayoutError::NotRequeueable(format!("job {id} is not finished")))?;
        let state = self.finished[pos].state;
        if !matches!(state, JobState::NodeFail | JobState::TimedOut) {
            return Err(LayoutError::NotRequeueable(format!(
                "job {id} ended in state {state:?}"
            )));
        }
        let mut job = self.finished.remove(pos);
        job.state = JobState::Pending;
        job.start_time = None;
        job.end_time = None;
        job.allocated_nodes.clear();
        job.run_time_s = run_time_s;
        job.fail_after_s = fail_after_s;
        job.eligible_time = self.now + delay_s.max(0.0);
        job.requeues += 1;
        self.pending.push(job);
        self.schedule_pass();
        Ok(())
    }

    /// Is `id` free of unmet dependencies?
    fn dependency_satisfied(&self, id: JobId) -> bool {
        match self.dependencies.get(&id) {
            None => true,
            Some(dep) => self
                .finished
                .iter()
                .any(|j| j.id == *dep && j.state == JobState::Completed),
        }
    }

    /// Can `id`'s dependency never be satisfied any more?
    fn dependency_impossible(&self, id: JobId) -> bool {
        match self.dependencies.get(&id) {
            None => false,
            Some(dep) => self
                .finished
                .iter()
                .any(|j| j.id == *dep && j.state != JobState::Completed),
        }
    }

    /// Cancel a pending or running job. Cancelling a running job releases
    /// its nodes immediately.
    pub fn cancel(&mut self, id: JobId) -> bool {
        if let Some(pos) = self.pending.iter().position(|j| j.id == id) {
            let mut job = self.pending.remove(pos);
            job.state = JobState::Cancelled;
            job.end_time = Some(self.now);
            self.finished.push(job);
            return true;
        }
        if let Some(pos) = self.running.iter().position(|j| j.id == id) {
            let mut job = self.running.remove(pos);
            job.state = JobState::Cancelled;
            job.end_time = Some(self.now);
            self.free_nodes.extend(job.allocated_nodes.iter().copied());
            self.free_nodes.sort_unstable();
            self.finished.push(job);
            self.schedule_pass();
            return true;
        }
        false
    }

    /// Advance simulated time until every submitted job has finished.
    pub fn run_to_completion(&mut self) {
        self.advance_to(f64::INFINITY);
    }

    /// Process completion events until `t` (inclusive); jobs still running
    /// at `t` keep running and `now` advances to `t` at most. Passing
    /// `f64::INFINITY` drains the whole schedule.
    pub fn advance_to(&mut self, t: f64) {
        loop {
            self.apply_due_repairs();
            self.schedule_pass();
            let next_repair = self.next_repair_time();
            if self.running.is_empty() {
                if self.pending.is_empty() {
                    // No work left, but the pool may still be healing:
                    // drain repairs within the horizon so the partition
                    // ends the window at full (repaired) strength.
                    if next_repair.is_finite() && next_repair <= t {
                        self.now = self.now.max(next_repair);
                        continue;
                    }
                    break;
                }
                // Nothing running, nothing startable right now. Either a
                // job is merely waiting out its eligibility hold (requeue
                // backoff) or a node repair will refill the pool — jump to
                // the nearer wake-up — or the rest can never start: cancel
                // them, as SLURM does (DependencyNeverSatisfied, or a
                // drained partition too small for the request).
                let next_eligible = self
                    .pending
                    .iter()
                    .filter(|j| !self.dependency_impossible(j.id))
                    .filter(|j| j.eligible_time > self.now)
                    .map(|j| j.eligible_time)
                    .fold(f64::INFINITY, f64::min);
                let wake = next_eligible.min(next_repair);
                if wake.is_finite() && wake <= t {
                    self.now = self.now.max(wake);
                    continue;
                }
                if wake.is_finite() {
                    // The next wake-up lies beyond the horizon.
                    self.now = self.now.max(t);
                    break;
                }
                let blocked: Vec<JobId> = self.pending.iter().map(|j| j.id).collect();
                for id in blocked {
                    self.cancel(id);
                }
                break;
            }
            // Next completion event — unless a node repair comes first.
            let (idx, end) = self
                .running
                .iter()
                .enumerate()
                .map(|(i, j)| (i, j.end_time.expect("running jobs have end times")))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("running non-empty");
            if next_repair < end {
                if next_repair > t {
                    self.now = self.now.max(t);
                    break;
                }
                self.now = next_repair;
                continue;
            }
            if end > t {
                self.now = self.now.max(t);
                break;
            }
            self.now = end;
            let mut job = self.running.remove(idx);
            let natural = job.run_time_s.min(job.request.time_limit_s);
            let node_failed = job.fail_after_s.is_some_and(|f| f < natural);
            job.state = if node_failed {
                JobState::NodeFail
            } else if job.run_time_s > job.request.time_limit_s {
                JobState::TimedOut
            } else {
                JobState::Completed
            };
            // A node failure drains the failed node; the rest return to
            // the pool. The job record keeps its full allocation for
            // post-mortem analysis.
            let mut released = job.allocated_nodes.clone();
            if node_failed {
                let failed = released.remove(0);
                self.drained_nodes.push(failed);
                let repair_at = self.heal_window_s.map(|w| self.now + w);
                if let Some(at) = repair_at {
                    self.repairing.push((at, failed));
                }
                self.events.push(NodeEvent::NodeDrained {
                    node: failed,
                    at: self.now,
                    repair_at,
                });
            }
            self.free_nodes.extend(released);
            self.free_nodes.sort_unstable();
            self.finished.push(job);
        }
    }

    /// Earliest outstanding repair instant, `INFINITY` when none.
    fn next_repair_time(&self) -> f64 {
        self.repairing
            .iter()
            .map(|&(at, _)| at)
            .fold(f64::INFINITY, f64::min)
    }

    /// Return every node whose repair time has arrived to the free pool,
    /// recording exactly one [`NodeEvent::NodeRepaired`] per drain.
    fn apply_due_repairs(&mut self) {
        let mut healed = false;
        let mut i = 0;
        while i < self.repairing.len() {
            let (at, node) = self.repairing[i];
            if at <= self.now {
                self.repairing.remove(i);
                self.drained_nodes.retain(|&n| n != node);
                self.free_nodes.push(node);
                self.events.push(NodeEvent::NodeRepaired { node, at });
                healed = true;
            } else {
                i += 1;
            }
        }
        if healed {
            self.free_nodes.sort_unstable();
        }
    }

    /// Try to start pending jobs under the active policy.
    fn schedule_pass(&mut self) {
        match self.policy {
            Policy::Fifo => {
                while let Some(head) = self.pending.first() {
                    if head.request.nodes_needed() <= self.free_node_count()
                        && head.eligible_time <= self.now
                        && self.dependency_satisfied(head.id)
                    {
                        let job = self.pending.remove(0);
                        self.start(job);
                    } else {
                        break;
                    }
                }
            }
            Policy::Backfill => {
                // Start the head if possible; otherwise compute its reserved
                // start time and backfill jobs that end before it.
                loop {
                    let Some(head) = self.pending.first() else {
                        return;
                    };
                    if head.request.nodes_needed() <= self.free_node_count()
                        && head.eligible_time <= self.now
                        && self.dependency_satisfied(head.id)
                    {
                        let job = self.pending.remove(0);
                        self.start(job);
                        continue;
                    }
                    break;
                }
                let Some(head) = self.pending.first() else {
                    return;
                };
                let reserve_at = self
                    .earliest_start_for(head.request.nodes_needed())
                    .max(head.eligible_time);
                let mut i = 1;
                while i < self.pending.len() {
                    let cand = &self.pending[i];
                    let fits_now = cand.request.nodes_needed() <= self.free_node_count()
                        && cand.eligible_time <= self.now
                        && self.dependency_satisfied(cand.id);
                    // Conservative: a backfilled job must finish (by its
                    // limit) before the head's reservation, or be small
                    // enough to not take the head's reserved nodes. We use
                    // the simple EASY rule: finish before the reservation.
                    let ends_in_time = self.now + cand.request.time_limit_s <= reserve_at;
                    if fits_now && ends_in_time {
                        let job = self.pending.remove(i);
                        self.start(job);
                        // Restart scan: free nodes changed.
                        i = 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// When could a job needing `nodes` start, given current running jobs'
    /// time limits?
    fn earliest_start_for(&self, nodes: u32) -> f64 {
        let mut free = self.free_node_count();
        if free >= nodes {
            return self.now;
        }
        // Sort running jobs by their worst-case end (start + limit).
        let mut ends: Vec<(f64, u32)> = self
            .running
            .iter()
            .map(|j| {
                (
                    j.start_time.expect("running") + j.request.time_limit_s,
                    j.request.nodes_needed(),
                )
            })
            .collect();
        ends.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (end, freed) in ends {
            free += freed;
            if free >= nodes {
                return end;
            }
        }
        f64::INFINITY
    }

    fn start(&mut self, mut job: Job) {
        let n = job.request.nodes_needed() as usize;
        debug_assert!(n <= self.free_nodes.len());
        job.allocated_nodes = self.free_nodes.drain(..n).collect();
        job.state = JobState::Running;
        job.start_time = Some(self.now);
        let mut actual = job.run_time_s.min(job.request.time_limit_s);
        if let Some(fail_at) = job.fail_after_s {
            actual = actual.min(fail_at);
        }
        job.end_time = Some(self.now + actual);
        self.running.push(job);
    }

    /// Look up any job by id.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.pending
            .iter()
            .chain(self.running.iter())
            .chain(self.finished.iter())
            .find(|j| j.id == id)
    }

    pub fn finished_jobs(&self) -> &[Job] {
        &self.finished
    }

    /// Mean queue wait over finished jobs.
    pub fn mean_wait_time(&self) -> f64 {
        let waits: Vec<f64> = self.finished.iter().filter_map(Job::wait_time).collect();
        if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<f64>() / waits.len() as f64
        }
    }

    /// Node-utilization fraction over the makespan.
    pub fn utilization(&self) -> f64 {
        let makespan = self
            .finished
            .iter()
            .filter_map(|j| j.end_time)
            .fold(0.0f64, f64::max);
        if makespan <= 0.0 {
            return 0.0;
        }
        if self.total_nodes == 0 {
            return 0.0;
        }
        // Every job that actually started occupied its nodes from start to
        // end — including ones that were killed, cancelled, or lost a node.
        let busy: f64 = self
            .finished
            .iter()
            .filter(|j| j.start_time.is_some())
            .map(|j| {
                (j.end_time.expect("finished") - j.start_time.expect("ran"))
                    * j.request.nodes_needed() as f64
            })
            .sum();
        busy / (makespan * self.total_nodes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(name: &str, nodes: u32, limit: f64) -> JobRequest {
        JobRequest::new(name, nodes, 1, 1).with_time_limit(limit)
    }

    #[test]
    fn single_job_runs_immediately() {
        let mut s = Scheduler::new(Policy::Fifo, 4, 16);
        let id = s.submit(req("a", 2, 100.0), 10.0).unwrap();
        s.run_to_completion();
        let j = s.job(id).unwrap();
        assert_eq!(j.state, JobState::Completed);
        assert_eq!(j.wait_time(), Some(0.0));
        assert_eq!(j.end_time, Some(10.0));
    }

    #[test]
    fn fifo_head_blocks_backfillable_job() {
        // 4 nodes. Job A takes all 4 for 100 s. Job B needs all 4 (blocked).
        // Job C needs 1 node for 10 s — FIFO makes it wait behind B.
        let mut s = Scheduler::new(Policy::Fifo, 4, 16);
        s.submit(req("a", 4, 200.0), 100.0).unwrap();
        let b = s.submit(req("b", 4, 200.0), 50.0).unwrap();
        let c = s.submit(req("c", 1, 20.0), 10.0).unwrap();
        s.run_to_completion();
        assert!(s.job(c).unwrap().start_time.unwrap() >= s.job(b).unwrap().start_time.unwrap());
    }

    #[test]
    fn backfill_lets_small_job_jump() {
        // a leaves one node free; b (the head) needs all 4 and blocks;
        // c fits in the hole and finishes before b's reservation.
        let mut s = Scheduler::new(Policy::Backfill, 4, 16);
        s.submit(req("a", 3, 200.0), 100.0).unwrap();
        let b = s.submit(req("b", 4, 200.0), 50.0).unwrap();
        let c = s.submit(req("c", 1, 20.0), 10.0).unwrap();
        s.run_to_completion();
        let cj = s.job(c).unwrap();
        let bj = s.job(b).unwrap();
        assert!(
            cj.start_time.unwrap() < bj.start_time.unwrap(),
            "c should backfill"
        );
        // But c cannot delay b: b starts when a actually ends.
        assert!((bj.start_time.unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn backfill_reduces_mean_wait() {
        let make = |policy| {
            let mut s = Scheduler::new(policy, 8, 16);
            s.submit(req("big1", 7, 100.0), 100.0).unwrap();
            s.submit(req("big2", 8, 100.0), 100.0).unwrap();
            for i in 0..6 {
                s.submit(req(&format!("small{i}"), 1, 50.0), 30.0).unwrap();
            }
            s.run_to_completion();
            s.mean_wait_time()
        };
        assert!(make(Policy::Backfill) < make(Policy::Fifo));
    }

    #[test]
    fn oversized_job_rejected() {
        let mut s = Scheduler::new(Policy::Fifo, 4, 16);
        assert!(matches!(
            s.submit(req("huge", 5, 10.0), 1.0),
            Err(LayoutError::PartitionTooSmall { .. })
        ));
        assert!(matches!(
            s.submit(JobRequest::new("wide", 1, 1, 32), 1.0),
            Err(LayoutError::NodeTooSmall { .. })
        ));
    }

    #[test]
    fn time_limit_enforced() {
        let mut s = Scheduler::new(Policy::Fifo, 1, 16);
        let id = s.submit(req("slow", 1, 10.0), 100.0).unwrap();
        s.run_to_completion();
        let j = s.job(id).unwrap();
        assert_eq!(j.state, JobState::TimedOut);
        assert_eq!(j.end_time, Some(10.0), "killed at the limit");
    }

    #[test]
    fn cancel_pending_job() {
        let mut s = Scheduler::new(Policy::Fifo, 1, 16);
        s.submit(req("a", 1, 100.0), 50.0).unwrap();
        let b = s.submit(req("b", 1, 100.0), 50.0).unwrap();
        assert!(s.cancel(b));
        assert!(!s.cancel(b), "already cancelled");
        s.run_to_completion();
        assert_eq!(s.job(b).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn utilization_bounded() {
        let mut s = Scheduler::new(Policy::Backfill, 4, 16);
        for i in 0..10 {
            s.submit(req(&format!("j{i}"), (i % 3) + 1, 100.0), 10.0 + i as f64)
                .unwrap();
        }
        s.run_to_completion();
        let u = s.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u} out of range");
    }

    #[test]
    fn dependency_chains_build_then_run() {
        let mut s = Scheduler::new(Policy::Backfill, 4, 16);
        let build = s.submit(req("build", 1, 600.0), 120.0).unwrap();
        let run = s.submit_after(req("run", 2, 600.0), 30.0, build).unwrap();
        s.run_to_completion();
        let b = s.job(build).unwrap();
        let r = s.job(run).unwrap();
        assert_eq!(b.state, JobState::Completed);
        assert_eq!(r.state, JobState::Completed);
        assert!(
            r.start_time.unwrap() >= b.end_time.unwrap(),
            "run must wait for build: {:?} vs {:?}",
            r.start_time,
            b.end_time
        );
    }

    #[test]
    fn dependency_on_failed_parent_cancels_child() {
        let mut s = Scheduler::new(Policy::Fifo, 4, 16);
        // Parent exceeds its limit -> TimedOut, not Completed.
        let parent = s.submit(req("slow", 1, 10.0), 100.0).unwrap();
        let child = s.submit_after(req("child", 1, 10.0), 5.0, parent).unwrap();
        s.run_to_completion();
        assert_eq!(s.job(parent).unwrap().state, JobState::TimedOut);
        assert_eq!(
            s.job(child).unwrap().state,
            JobState::Cancelled,
            "DependencyNeverSatisfied"
        );
    }

    #[test]
    fn dependency_on_unknown_job_rejected() {
        let mut s = Scheduler::new(Policy::Fifo, 4, 16);
        assert!(s.submit_after(req("x", 1, 10.0), 1.0, JobId(99)).is_err());
    }

    #[test]
    fn independent_jobs_backfill_around_dependency() {
        let mut s = Scheduler::new(Policy::Backfill, 4, 16);
        let build = s.submit(req("build", 4, 200.0), 100.0).unwrap();
        let run = s.submit_after(req("run", 4, 200.0), 10.0, build).unwrap();
        let free = s.submit(req("free", 1, 20.0), 10.0).unwrap();
        s.run_to_completion();
        // Everything completes; the blocked `run` job never starves the
        // independent one indefinitely.
        for id in [build, run, free] {
            assert_eq!(s.job(id).unwrap().state, JobState::Completed);
        }
        assert!(s.job(run).unwrap().start_time.unwrap() >= s.job(build).unwrap().end_time.unwrap());
    }

    #[test]
    fn empty_schedule_has_no_nan_stats() {
        let s = Scheduler::new(Policy::Fifo, 4, 16);
        assert_eq!(s.mean_wait_time(), 0.0);
        assert_eq!(s.utilization(), 0.0);
        // Degenerate partition: still no NaN.
        let z = Scheduler::new(Policy::Fifo, 0, 16);
        assert_eq!(z.utilization(), 0.0);
        // A schedule whose only job is cancelled at t=0 has zero makespan.
        let mut c = Scheduler::new(Policy::Fifo, 1, 16);
        let a = c.submit(req("a", 1, 10.0), 5.0).unwrap();
        let b = c.submit(req("b", 1, 10.0), 5.0).unwrap();
        c.cancel(a);
        c.cancel(b);
        assert_eq!(c.mean_wait_time(), 0.0);
        assert!(c.utilization().is_finite());
    }

    #[test]
    fn cancel_running_job_releases_nodes_and_charges_elapsed() {
        let mut s = Scheduler::new(Policy::Fifo, 2, 16);
        let a = s.submit(req("a", 2, 100.0), 50.0).unwrap();
        assert_eq!(s.free_node_count(), 0, "a holds both nodes");
        s.advance_to(10.0);
        assert!(s.cancel(a), "cancel a running job");
        assert_eq!(s.free_node_count(), 2, "nodes released immediately");
        let j = s.job(a).unwrap();
        assert_eq!(j.state, JobState::Cancelled);
        // Ended at the elapsed 10 s, not the full 50 s runtime.
        assert_eq!(j.end_time, Some(10.0));
        // The freed nodes are immediately reusable.
        let b = s.submit(req("b", 2, 100.0), 5.0).unwrap();
        s.run_to_completion();
        assert_eq!(s.job(b).unwrap().state, JobState::Completed);
    }

    #[test]
    fn injected_node_failure_drains_node_and_allows_requeue() {
        let mut s = Scheduler::new(Policy::Fifo, 4, 16);
        let id = s
            .submit_with_fault(req("a", 2, 100.0), 50.0, Some(20.0))
            .unwrap();
        s.run_to_completion();
        let j = s.job(id).unwrap();
        assert_eq!(j.state, JobState::NodeFail);
        assert_eq!(j.end_time, Some(20.0), "killed at the failure instant");
        assert_eq!(s.drained_nodes().len(), 1);
        assert_eq!(s.free_node_count(), 3, "survivor node returned to pool");
        // Requeue with a healthy rerun and a 30 s backoff.
        s.requeue(id, 50.0, None, 30.0).unwrap();
        s.run_to_completion();
        let j = s.job(id).unwrap();
        assert_eq!(j.state, JobState::Completed);
        assert_eq!(j.requeues, 1);
        assert!(
            j.start_time.unwrap() >= 50.0,
            "second run honours the backoff: started {:?}",
            j.start_time
        );
        // The drained node never came back.
        assert_eq!(s.free_node_count() + 2, 4 - 1 + 2 - 1 + 1);
        assert_eq!(s.drained_nodes().len(), 1);
    }

    #[test]
    fn completed_job_is_not_requeueable() {
        let mut s = Scheduler::new(Policy::Fifo, 1, 16);
        let id = s.submit(req("a", 1, 100.0), 5.0).unwrap();
        s.run_to_completion();
        assert!(matches!(
            s.requeue(id, 5.0, None, 0.0),
            Err(LayoutError::NotRequeueable(_))
        ));
        assert!(s.requeue(JobId(99), 5.0, None, 0.0).is_err());
    }

    #[test]
    fn timed_out_job_is_requeueable() {
        let mut s = Scheduler::new(Policy::Fifo, 1, 16);
        let id = s.submit(req("slow", 1, 10.0), 100.0).unwrap();
        s.run_to_completion();
        assert_eq!(s.job(id).unwrap().state, JobState::TimedOut);
        s.requeue(id, 5.0, None, 60.0).unwrap();
        s.run_to_completion();
        let j = s.job(id).unwrap();
        assert_eq!(j.state, JobState::Completed);
        assert!(
            (j.start_time.unwrap() - 70.0).abs() < 1e-9,
            "10 s end + 60 s backoff"
        );
    }

    #[test]
    fn fault_before_time_limit_wins() {
        // Run would time out at 10 s but the node dies at 4 s: NodeFail.
        let mut s = Scheduler::new(Policy::Fifo, 1, 16);
        let id = s
            .submit_with_fault(req("x", 1, 10.0), 100.0, Some(4.0))
            .unwrap();
        s.run_to_completion();
        let j = s.job(id).unwrap();
        assert_eq!(j.state, JobState::NodeFail);
        assert_eq!(j.end_time, Some(4.0));
        // Fault *after* the limit never fires: the job is killed first.
        let mut s = Scheduler::new(Policy::Fifo, 1, 16);
        let id = s
            .submit_with_fault(req("y", 1, 10.0), 100.0, Some(40.0))
            .unwrap();
        s.run_to_completion();
        assert_eq!(s.job(id).unwrap().state, JobState::TimedOut);
        assert!(s.drained_nodes().is_empty());
    }

    #[test]
    fn fully_drained_partition_cancels_unstartable_jobs() {
        let mut s = Scheduler::new(Policy::Fifo, 1, 16);
        let a = s
            .submit_with_fault(req("a", 1, 100.0), 50.0, Some(5.0))
            .unwrap();
        s.run_to_completion();
        assert_eq!(s.job(a).unwrap().state, JobState::NodeFail);
        assert_eq!(s.free_node_count(), 0, "only node drained");
        // Requeue cannot ever start: no nodes left in service.
        s.requeue(a, 50.0, None, 0.0).unwrap();
        s.run_to_completion();
        assert_eq!(
            s.job(a).unwrap().state,
            JobState::Cancelled,
            "unstartable requeue is cancelled, not stuck pending"
        );
    }

    #[test]
    fn heal_returns_drained_node_after_window() {
        let mut s = Scheduler::new(Policy::Fifo, 2, 16).with_heal(100.0);
        let a = s
            .submit_with_fault(req("a", 2, 100.0), 50.0, Some(20.0))
            .unwrap();
        s.run_to_completion();
        assert_eq!(s.job(a).unwrap().state, JobState::NodeFail);
        assert!(s.drained_nodes().is_empty(), "healed by completion");
        assert_eq!(s.free_node_count(), 2, "pool restored");
        let repaired: Vec<_> = s
            .node_events()
            .iter()
            .filter(|e| matches!(e, NodeEvent::NodeRepaired { .. }))
            .collect();
        assert_eq!(repaired.len(), 1, "exactly one repair per drain");
        assert_eq!(
            repaired[0],
            &NodeEvent::NodeRepaired { node: 0, at: 120.0 },
            "fail at 20 s + 100 s window"
        );
        assert!(matches!(
            s.node_events()[0],
            NodeEvent::NodeDrained {
                node: 0,
                at,
                repair_at: Some(r)
            } if at == 20.0 && r == 120.0
        ));
    }

    #[test]
    fn heal_lets_fully_drained_partition_recover() {
        // The no-heal twin of this setup is
        // `fully_drained_partition_cancels_unstartable_jobs`: there the
        // requeue is cancelled forever. With healing the requeue waits for
        // the repair and completes.
        let mut s = Scheduler::new(Policy::Fifo, 1, 16).with_heal(200.0);
        let a = s
            .submit_with_fault(req("a", 1, 100.0), 50.0, Some(5.0))
            .unwrap();
        s.run_to_completion();
        assert_eq!(s.job(a).unwrap().state, JobState::NodeFail);
        s.requeue(a, 50.0, None, 0.0).unwrap();
        s.run_to_completion();
        let j = s.job(a).unwrap();
        assert_eq!(j.state, JobState::Completed, "repair made it startable");
        assert!(
            (j.start_time.unwrap() - 205.0).abs() < 1e-9,
            "starts at the repair instant (5 s fail + 200 s window)"
        );
        assert_eq!(s.free_node_count(), 1);
    }

    #[test]
    fn without_heal_no_repair_events_are_emitted() {
        let mut s = Scheduler::new(Policy::Fifo, 2, 16);
        s.submit_with_fault(req("a", 1, 100.0), 50.0, Some(5.0))
            .unwrap();
        s.run_to_completion();
        assert_eq!(s.drained_nodes().len(), 1, "drained forever");
        assert!(matches!(
            s.node_events(),
            [NodeEvent::NodeDrained {
                repair_at: None,
                ..
            }]
        ));
    }

    #[test]
    fn timestamps_monotonic() {
        let mut s = Scheduler::new(Policy::Backfill, 2, 16);
        for i in 0..8 {
            s.submit(
                req(&format!("j{i}"), 1 + (i % 2), 50.0),
                5.0 * (i + 1) as f64,
            )
            .unwrap();
        }
        s.run_to_completion();
        for j in s.finished_jobs() {
            let (st, en) = (j.start_time.unwrap(), j.end_time.unwrap());
            assert!(st >= j.submit_time);
            assert!(en >= st);
        }
    }
}
