//! The discrete-event kernel: resources, plan execution, virtual clock.
//!
//! The kernel owns a future-event list and a set of FIFO multi-server
//! resources. Logical actions are submitted as [`Plan`]s tagged with a
//! [`Token`]; the kernel executes their steps under queueing and emits a
//! [`Completion`] when the final step finishes. The benchmark driver
//! interleaves with the kernel through [`Engine::next_completion`]: pull a
//! completion, record its latency, let the workload generator and store
//! produce the next plan, submit, repeat — a closed loop.
//!
//! Everything is deterministic: ties in event time are broken by event
//! sequence number (submission order).

use crate::arena::{FlatStep, PlanArena, PlanId};
use crate::plan::Plan;
use crate::queue::CalendarQueue;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceEventKind, Tracer};
use apm_core::snap::{self, SnapError, SnapReader, SnapWriter};
use apm_core::{snap_enum, snap_struct};
use std::collections::VecDeque;

/// Identifies a resource registered with [`Engine::add_resource`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u32);

/// Opaque tag identifying a submitted plan; returned in its [`Completion`].
/// The driver encodes client ids and background-job ids in tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub u64);

/// Terminal status of a completed plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Every step ran to completion.
    #[default]
    Ok,
    /// A step hit a failed resource, or a join's quorum became
    /// impossible after branch failures.
    Failed,
    /// The plan's deadline elapsed before it finished.
    TimedOut,
    /// The submitter revoked the plan via [`Engine::cancel`] before it
    /// finished (e.g. a hedged read whose sibling won).
    Cancelled,
}

impl Outcome {
    /// True when the plan ran to completion.
    pub fn is_ok(self) -> bool {
        self == Outcome::Ok
    }
}

/// How a failed resource treats requests (see [`Engine::fail_resource`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailMode {
    /// Requests are refused: the plan aborts with [`Outcome::Failed`]
    /// after `latency` (models a connection-refused / error response).
    /// Requests already queued at fail time are refused immediately.
    Reject {
        /// Time the client spends learning of the failure.
        latency: SimDuration,
    },
    /// Requests hang in the queue until the resource is restored
    /// (models a network blackhole; pair with
    /// [`Engine::submit_at_with_deadline`] for client-side timeouts).
    Stall,
}

/// A finished top-level plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The token the plan was submitted with.
    pub token: Token,
    /// When the plan was submitted (start of its latency window).
    pub submitted: SimTime,
    /// When the final step finished.
    pub finished: SimTime,
    /// Whether the plan succeeded, failed, or timed out.
    pub outcome: Outcome,
}

impl Completion {
    /// End-to-end latency of the plan.
    pub fn latency(&self) -> SimDuration {
        self.finished.since(self.submitted)
    }
}

/// A FIFO multi-server queueing station.
#[derive(Debug)]
struct Resource {
    /// Registration, fixed for the engine's lifetime.
    name: String,
    capacity: u32,
    /// What a run changes: all a snapshot holds of the resource.
    run: ResourceRun,
}

#[derive(Debug)]
struct ResourceRun {
    busy: u32,
    /// Waiting queue: exec, its service demand, and when it enqueued.
    waiting: VecDeque<(ExecRef, SimDuration, SimTime)>,
    /// Accumulated server-busy nanoseconds (for utilisation reports).
    busy_ns: u128,
    /// Accumulated queue-wait nanoseconds of requests that reached
    /// service (aborted/stalled-forever waits are not attributed).
    waited_ns: u128,
    served: u64,
    /// Fault state: `Some(mode)` while the resource is down.
    down: Option<FailMode>,
    /// Service-time multiplier (1 = healthy; >1 = fail-slow / degraded).
    slowdown: u32,
}

/// Reference to an execution slot, protected by a generation counter so
/// stale references (e.g. a quorum parent that already resumed) are inert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ExecRef {
    idx: u32,
    generation: u32,
}

/// Handle to a submitted top-level plan, returned by the `submit*`
/// family. Lets the submitter [`Engine::cancel`] the plan later; like the
/// internal exec references it is generation-protected, so a handle to a
/// plan that already completed is inert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanHandle(ExecRef);

/// A plan pre-interned in the engine's arena — the simulator's analogue
/// of a prepared statement. Submitting one via
/// [`Engine::submit_prepared`] skips the per-submission structural hash
/// and equality walk that [`Engine::submit`] pays to deduplicate plan
/// shapes. The handle owns one arena reference and stays valid for the
/// engine's lifetime, but a [`Engine::restore_state`] rebuilds the arena
/// and invalidates it — re-prepare after restoring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreparedPlan(PlanId);

/// Fewest bytes one exec slot takes in a snapshot (an empty plan, no
/// parent): what bounds the slot count a snapshot may claim.
const EXEC_MIN_SNAP_BYTES: usize = 8 + 4 + 8 + 8 + 1 + 4 + 4 + 1 + 4 + 1;

#[derive(Debug)]
struct Exec {
    /// The (arena-interned) plan this exec runs; the exec owns one
    /// reference, released when the slot is freed.
    plan: PlanId,
    pc: u32,
    token: Token,
    submitted: SimTime,
    parent: Option<ExecRef>,
    /// For a pending Join: number of child successes still required.
    join_need: u32,
    /// For a pending Join: number of children still running.
    join_pending: u32,
    /// Sticky failure status; reported in the [`Completion`].
    outcome: Outcome,
    generation: u32,
    live: bool,
}

impl Exec {
    /// True while this slot still runs the exec `exec` refers to.
    fn holds(&self, exec: ExecRef) -> bool {
        self.live && self.generation == exec.generation
    }
}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Re-run the exec's step loop (after Delay/AlignTo or at submission).
    Resume(ExecRef),
    /// An Acquire finished: release one slot of the resource, then resume.
    AcquireDone(ExecRef, ResourceId),
    /// A deadline set by `submit_at_with_deadline` elapsed.
    Timeout(ExecRef),
}

/// The future-event list. Production engines always run the calendar
/// queue; the retired binary heap survives behind `#[cfg(test)]` as the
/// oracle for the queue equivalence suite (see `crate::queue`).
#[derive(Debug)]
enum EventQueue {
    Calendar(CalendarQueue<Event>),
    #[cfg(test)]
    Reference(crate::queue::ReferenceQueue<Event>),
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::Calendar(CalendarQueue::new())
    }
}

impl EventQueue {
    #[inline]
    fn push(&mut self, at: SimTime, seq: u64, event: Event) {
        match self {
            EventQueue::Calendar(q) => q.push(at, seq, event),
            #[cfg(test)]
            EventQueue::Reference(q) => q.push(at, seq, event),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u64, Event)> {
        match self {
            EventQueue::Calendar(q) => q.pop(),
            #[cfg(test)]
            EventQueue::Reference(q) => q.pop(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<(SimTime, u64)> {
        match self {
            EventQueue::Calendar(q) => q.peek(),
            #[cfg(test)]
            EventQueue::Reference(q) => q.peek(),
        }
    }

    fn sorted_entries(&self) -> Vec<(SimTime, u64, Event)> {
        match self {
            EventQueue::Calendar(q) => q.sorted_entries(),
            #[cfg(test)]
            EventQueue::Reference(q) => q.sorted_entries(),
        }
    }

    fn rebuild(&mut self, now: SimTime, entries: Vec<(SimTime, u64, Event)>) {
        match self {
            EventQueue::Calendar(q) => q.rebuild(now, entries),
            #[cfg(test)]
            EventQueue::Reference(q) => q.rebuild(now, entries),
        }
    }
}

/// The simulation engine.
#[derive(Debug, Default)]
pub struct Engine {
    now: SimTime,
    seq: u64,
    /// Future-event list; events are stored inline (they are `Copy`), so
    /// a pop is a bucket read with no payload-slab indirection.
    queue: EventQueue,
    resources: Vec<Resource>,
    /// Flat plan storage shared by all execs; see `crate::arena`.
    arena: PlanArena,
    execs: Vec<Exec>,
    free_execs: Vec<u32>,
    ready: VecDeque<ExecRef>,
    completions: VecDeque<Completion>,
    /// Runtime invariant checker (monotonicity, tie-breaks, op
    /// conservation, fault causality) — see `crate::audit`.
    auditor: crate::audit::KernelAuditor,
    /// Span recorder (bounded ring + run fingerprint) — see `crate::trace`;
    /// `None` unless [`Engine::enable_trace`] turned it on. An observer,
    /// not state: snapshots neither write nor restore it.
    tracer: Option<Tracer>,
}

/// Where a trace event's time, token and resource come from. Resolved
/// only when a tracer is on, so an untraced engine never reads an exec
/// slot for a token.
#[derive(Clone, Copy)]
enum TraceAt {
    /// A step of `exec` on a resource, now. A stale ref (e.g. a timed-out
    /// plan whose service completes later) is recorded without a token.
    Step(ExecRef, ResourceId),
    /// A plan-level event (submit, complete) of a token at a time.
    Plan(Token, SimTime),
    /// A resource fault transition, now.
    Resource(ResourceId),
}

impl Engine {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Engine::default()
    }

    /// An engine whose future-event list is the retired binary-heap
    /// reference implementation — the oracle half of the queue
    /// equivalence suite.
    #[cfg(test)]
    fn with_reference_queue() -> Self {
        Engine {
            queue: EventQueue::Reference(crate::queue::ReferenceQueue::new()),
            ..Engine::default()
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The runtime invariant checker. Its fingerprint lets callers
    /// cross-check two runs event-by-event.
    pub fn auditor(&self) -> &crate::audit::KernelAuditor {
        &self.auditor
    }

    /// Turns span tracing on: installs an empty [`Tracer`] with the
    /// default ring, so every lifecycle transition from here on is
    /// recorded. Call it before the run, or before a restore to trace a
    /// resumed run; snapshots never carry the tracer. An engine without
    /// it records nothing, and each record site costs it one branch.
    pub fn enable_trace(&mut self) {
        self.tracer = Some(Tracer::default());
    }

    /// The span recorder, if tracing is on.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Records a trace event when tracing is on. Every record site of the
    /// kernel goes through here, so an untraced engine pays this one
    /// `if let` and never enters the recorder.
    #[inline(always)]
    fn trace(&mut self, kind: TraceEventKind, at: TraceAt) {
        if let Some(tracer) = &mut self.tracer {
            Engine::record_trace(tracer, &self.execs, self.now, kind, at);
        }
    }

    /// The recorder behind [`Engine::trace`], out of line so that the hot
    /// paths it sits on stay as small as they are untraced.
    #[cold]
    #[inline(never)]
    fn record_trace(
        tracer: &mut Tracer,
        execs: &[Exec],
        now: SimTime,
        kind: TraceEventKind,
        at: TraceAt,
    ) {
        let (at, token, resource) = match at {
            TraceAt::Step(exec, resource) => {
                let slot = &execs[exec.idx as usize];
                (now, slot.holds(exec).then_some(slot.token), Some(resource))
            }
            TraceAt::Plan(token, at) => (at, Some(token), None),
            TraceAt::Resource(resource) => (now, None, Some(resource)),
        };
        tracer.record(TraceEvent {
            at,
            token,
            resource,
            kind,
        });
    }

    /// Registers a FIFO resource with `capacity` parallel servers.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: u32) -> ResourceId {
        assert!(capacity > 0, "resource capacity must be positive");
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            name: name.into(),
            capacity,
            run: ResourceRun {
                busy: 0,
                waiting: VecDeque::new(),
                busy_ns: 0,
                waited_ns: 0,
                served: 0,
                down: None,
                slowdown: 1,
            },
        });
        id
    }

    /// Marks `resource` as failed. With [`FailMode::Reject`] every queued
    /// and future request aborts its plan with [`Outcome::Failed`]; with
    /// [`FailMode::Stall`] requests wait (forever, absent a deadline)
    /// until [`Engine::restore_resource`]. Requests already *in service*
    /// finish normally — they left the node before it died.
    pub fn fail_resource(&mut self, resource: ResourceId, mode: FailMode) {
        self.trace(TraceEventKind::ResourceDown, TraceAt::Resource(resource));
        let r = &mut self.resources[resource.0 as usize];
        r.run.down = Some(mode);
        if let FailMode::Reject { latency } = mode {
            let waiting: Vec<(ExecRef, SimDuration, SimTime)> = r.run.waiting.drain(..).collect();
            for (exec, _service, _enqueued) in waiting {
                self.abort_exec(exec, Outcome::Failed, latency);
            }
        }
    }

    /// Clears `resource`'s fault state and starts serving any stalled
    /// queue entries.
    pub fn restore_resource(&mut self, resource: ResourceId) {
        self.trace(
            TraceEventKind::ResourceRestored,
            TraceAt::Resource(resource),
        );
        self.resources[resource.0 as usize].run.down = None;
        self.kick(resource);
    }

    /// True while `resource` is failed.
    pub fn resource_is_down(&self, resource: ResourceId) -> bool {
        self.resources[resource.0 as usize].run.down.is_some()
    }

    /// Multiplies `resource`'s service times by `factor` (fail-slow /
    /// degraded hardware). `factor == 1` restores full speed. Applies to
    /// services that start after the call.
    ///
    /// # Panics
    /// Panics if `factor` is zero.
    pub fn set_resource_slowdown(&mut self, resource: ResourceId, factor: u32) {
        assert!(factor > 0, "slowdown factor must be positive");
        self.trace(TraceEventKind::Slowdown, TraceAt::Resource(resource));
        self.resources[resource.0 as usize].run.slowdown = factor;
    }

    /// Current service-time multiplier of `resource`.
    pub fn resource_slowdown(&self, resource: ResourceId) -> u32 {
        self.resources[resource.0 as usize].run.slowdown
    }

    /// Starts service for `exec` on `resource`. The caller has already
    /// accounted for the server slot in `busy`.
    fn begin_service(&mut self, resource: ResourceId, exec: ExecRef, service: SimDuration) {
        let r = &mut self.resources[resource.0 as usize];
        // Fault causality: in-service requests may outlive a crash, but
        // a down node must never *start* serving new work.
        assert!(
            r.run.down.is_none(),
            "kernel audit: service began on failed resource `{}`",
            r.name
        );
        let scaled =
            SimDuration::from_nanos(service.as_nanos().saturating_mul(u64::from(r.run.slowdown)));
        r.run.busy_ns += u128::from(scaled.as_nanos());
        let at = self.now + scaled;
        self.schedule(at, Event::AcquireDone(exec, resource));
        self.trace(TraceEventKind::ServiceStart, TraceAt::Step(exec, resource));
    }

    /// Fills free server slots from the waiting queue (after a restore).
    fn kick(&mut self, resource: ResourceId) {
        loop {
            let r = &mut self.resources[resource.0 as usize];
            if r.run.busy >= r.capacity || r.run.down.is_some() {
                return;
            }
            let Some((next, service, enqueued)) = r.run.waiting.pop_front() else {
                return;
            };
            r.run.busy += 1;
            r.run.waited_ns += u128::from(self.now.since(enqueued).as_nanos());
            self.begin_service(resource, next, service);
        }
    }

    /// Aborts `exec`: skips its remaining steps and finishes it with
    /// `outcome` after `after` (the time the client spends learning of
    /// the failure).
    fn abort_exec(&mut self, exec: ExecRef, outcome: Outcome, after: SimDuration) {
        debug_assert!(self.is_current(exec));
        let end = self.arena.step_len(self.execs[exec.idx as usize].plan);
        let slot = &mut self.execs[exec.idx as usize];
        slot.outcome = outcome;
        slot.pc = end;
        let at = self.now + after;
        self.schedule(at, Event::Resume(exec));
    }

    /// Fraction of `resource`'s total server-time spent busy so far.
    pub fn utilization(&self, resource: ResourceId) -> f64 {
        let r = &self.resources[resource.0 as usize];
        let denom = self.now.as_nanos() as u128 * u128::from(r.capacity);
        if denom == 0 {
            0.0
        } else {
            r.run.busy_ns as f64 / denom as f64
        }
    }

    /// Number of requests `resource` has finished serving.
    pub fn served(&self, resource: ResourceId) -> u64 {
        self.resources[resource.0 as usize].run.served
    }

    /// Number of resources registered so far. Resource ids are dense:
    /// `ResourceId(0..count)` are all valid.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Number of parallel servers `resource` was registered with.
    pub fn resource_capacity(&self, resource: ResourceId) -> u32 {
        self.resources[resource.0 as usize].capacity
    }

    /// Accumulated server-busy nanoseconds of `resource` (the numerator
    /// of [`Engine::utilization`]; pure service time, excluding queueing).
    pub fn service_ns(&self, resource: ResourceId) -> u128 {
        self.resources[resource.0 as usize].run.busy_ns
    }

    /// Accumulated nanoseconds requests spent waiting in `resource`'s
    /// queue before reaching service. Waits that never reach service
    /// (aborted by a crash, still queued) are not attributed.
    pub fn queue_wait_ns(&self, resource: ResourceId) -> u128 {
        self.resources[resource.0 as usize].run.waited_ns
    }

    /// Name a resource was registered with.
    pub fn resource_name(&self, resource: ResourceId) -> &str {
        &self.resources[resource.0 as usize].name
    }

    /// Current queue length (waiting, not in service) at `resource`.
    pub fn queue_len(&self, resource: ResourceId) -> usize {
        self.resources[resource.0 as usize].run.waiting.len()
    }

    /// Submits a plan now.
    pub fn submit(&mut self, plan: Plan, token: Token) -> PlanHandle {
        self.submit_plan(self.now, &plan, token, None)
    }

    /// Submits a plan to start at `start` (must not be in the past).
    ///
    /// # Panics
    /// Panics if `start` is before the current simulated time.
    pub fn submit_at(&mut self, start: SimTime, plan: Plan, token: Token) -> PlanHandle {
        self.submit_plan(start, &plan, token, None)
    }

    /// Submits a plan to start at `start` with a client-side deadline
    /// counted from `start`: if it has not finished within `deadline` it
    /// completes with [`Outcome::TimedOut`] at exactly the deadline.
    /// Work it queued stays queued (a server may still burn time serving
    /// the abandoned request).
    ///
    /// # Panics
    /// Panics if `start` is before the current simulated time.
    pub fn submit_at_with_deadline(
        &mut self,
        start: SimTime,
        plan: Plan,
        token: Token,
        deadline: SimDuration,
    ) -> PlanHandle {
        self.submit_plan(start, &plan, token, Some(deadline))
    }

    /// Interns `plan` once and returns a reusable [`PreparedPlan`]
    /// handle, the cheap-submission path for closed-loop drivers that
    /// re-issue one template shape at high rate.
    pub fn prepare(&mut self, plan: &Plan) -> PreparedPlan {
        PreparedPlan(self.arena.intern(plan))
    }

    /// Submits a prepared plan now; identical to [`Engine::submit`] with
    /// the plan the handle was prepared from, minus the intern walk.
    ///
    /// # Panics
    /// Panics if the handle is stale (prepared before a
    /// [`Engine::restore_state`]).
    pub fn submit_prepared(&mut self, prepared: PreparedPlan, token: Token) -> PlanHandle {
        assert!(
            self.arena.is_current(prepared.0),
            "stale PreparedPlan: re-prepare after restore_state"
        );
        self.arena.retain(prepared.0);
        self.launch(self.now, prepared.0, token, None)
    }

    /// The one body behind every by-plan submit: past check, intern,
    /// then [`Engine::launch`]. The kernel interns by content, so the
    /// caller's `Plan` only feeds the intern walk.
    fn submit_plan(
        &mut self,
        start: SimTime,
        plan: &Plan,
        token: Token,
        deadline: Option<SimDuration>,
    ) -> PlanHandle {
        assert!(start >= self.now, "cannot submit into the past");
        let plan = self.arena.intern(plan);
        self.launch(start, plan, token, deadline)
    }

    /// Binds one owned arena reference to a fresh exec, schedules its
    /// first step (and its timeout, if any) and records the submission.
    fn launch(
        &mut self,
        start: SimTime,
        plan: PlanId,
        token: Token,
        deadline: Option<SimDuration>,
    ) -> PlanHandle {
        let exec = self.alloc_exec(plan, token, start, None);
        self.schedule(start, Event::Resume(exec));
        if let Some(deadline) = deadline {
            self.schedule(start + deadline, Event::Timeout(exec));
        }
        self.trace(TraceEventKind::Submit, TraceAt::Plan(token, start));
        PlanHandle(exec)
    }

    /// Cancels the plan behind `handle`, completing it *now* with
    /// [`Outcome::Cancelled`]. Like a timeout, cancellation abandons the
    /// plan wherever it is: queue entries and in-flight services it owns
    /// become stale (a server may still burn time on the abandoned
    /// request, as real ones do after a client disconnects). Returns
    /// `true` if the plan was still running; a handle to a finished plan
    /// is inert and returns `false`.
    pub fn cancel(&mut self, handle: PlanHandle) -> bool {
        let exec = handle.0;
        if !self.is_current(exec) {
            return false;
        }
        let end = self.arena.step_len(self.execs[exec.idx as usize].plan);
        let slot = &mut self.execs[exec.idx as usize];
        slot.outcome = Outcome::Cancelled;
        slot.pc = end;
        slot.join_need = 0;
        self.finish_exec(exec);
        true
    }

    /// Refuses a plan handle read from a checkpoint that names an exec
    /// slot this engine does not have: [`Engine::cancel`] indexes by it.
    pub fn check_handles(&self, all: impl Iterator<Item = PlanHandle>) -> Result<(), SnapError> {
        for handle in all {
            within("Engine exec slot", handle.0.idx, self.execs.len())?;
        }
        Ok(())
    }

    /// Takes ownership of one arena reference to `plan` (the caller
    /// interned or retained it) and binds it to a fresh exec slot.
    fn alloc_exec(
        &mut self,
        plan: PlanId,
        token: Token,
        submitted: SimTime,
        parent: Option<ExecRef>,
    ) -> ExecRef {
        // Parentless execs (top-level submissions and fire-and-forget
        // join branches) each owe the driver exactly one completion.
        if parent.is_none() {
            self.auditor.on_issue();
        }
        if let Some(idx) = self.free_execs.pop() {
            let slot = &mut self.execs[idx as usize];
            debug_assert!(!slot.live);
            slot.plan = plan;
            slot.pc = 0;
            slot.token = token;
            slot.submitted = submitted;
            slot.parent = parent;
            slot.join_need = 0;
            slot.join_pending = 0;
            slot.outcome = Outcome::Ok;
            slot.live = true;
            ExecRef {
                idx,
                generation: slot.generation,
            }
        } else {
            let idx = self.execs.len() as u32;
            self.execs.push(Exec {
                plan,
                pc: 0,
                token,
                submitted,
                parent,
                join_need: 0,
                join_pending: 0,
                outcome: Outcome::Ok,
                generation: 0,
                live: true,
            });
            ExecRef { idx, generation: 0 }
        }
    }

    fn free_exec(&mut self, exec: ExecRef) {
        let plan = self.execs[exec.idx as usize].plan;
        self.arena.release(plan);
        let slot = &mut self.execs[exec.idx as usize];
        slot.live = false;
        slot.generation = slot.generation.wrapping_add(1);
        slot.plan = PlanId::NONE;
        self.free_execs.push(exec.idx);
    }

    fn is_current(&self, exec: ExecRef) -> bool {
        self.execs[exec.idx as usize].holds(exec)
    }

    #[inline]
    fn schedule(&mut self, at: SimTime, event: Event) {
        self.queue.push(at, self.seq, event);
        self.seq += 1;
    }

    /// Runs the step loop of `exec` until it blocks or finishes.
    fn advance(&mut self, exec: ExecRef) {
        debug_assert!(self.is_current(exec));
        loop {
            let (plan, pc) = {
                let slot = &self.execs[exec.idx as usize];
                (slot.plan, slot.pc)
            };
            if pc >= self.arena.step_len(plan) {
                self.finish_exec(exec);
                return;
            }
            // Steps are `Copy` in the arena: no take/put churn to satisfy
            // the borrow checker, and Join branches stay shared.
            let step = self.arena.step(plan, pc);
            self.execs[exec.idx as usize].pc = pc + 1;
            match step {
                FlatStep::Delay(d) => {
                    if d == SimDuration::ZERO {
                        continue;
                    }
                    let at = self.now + d;
                    self.schedule(at, Event::Resume(exec));
                    return;
                }
                FlatStep::AlignTo { period, extra } => {
                    let at = if period == SimDuration::ZERO {
                        self.now + extra
                    } else {
                        let p = period.as_nanos();
                        let boundary = (self.now.as_nanos() / p + 1) * p;
                        SimTime(boundary) + extra
                    };
                    self.schedule(at, Event::Resume(exec));
                    return;
                }
                FlatStep::Acquire { resource, service } => {
                    let r = &mut self.resources[resource.0 as usize];
                    match r.run.down {
                        Some(FailMode::Reject { latency }) => {
                            self.abort_exec(exec, Outcome::Failed, latency);
                        }
                        None if r.run.busy < r.capacity => {
                            r.run.busy += 1;
                            self.begin_service(resource, exec, service);
                        }
                        // A stalled resource queues like a busy one (its
                        // restore kicks the queue).
                        Some(FailMode::Stall) | None => {
                            r.run.waiting.push_back((exec, service, self.now));
                            self.trace(TraceEventKind::Enqueue, TraceAt::Step(exec, resource));
                        }
                    }
                    return;
                }
                FlatStep::Join {
                    first_child,
                    children,
                    need,
                } => {
                    let need = need.min(children);
                    if need == 0 {
                        // Fire-and-forget branches still execute. They are
                        // parentless (each emits its own Completion), so
                        // they open their own trace spans.
                        for k in 0..children {
                            let branch = self.arena.child(first_child + k);
                            self.arena.retain(branch);
                            let token = self.execs[exec.idx as usize].token;
                            let child = self.alloc_exec(branch, token, self.now, None);
                            self.ready.push_back(child);
                            self.trace(TraceEventKind::Submit, TraceAt::Plan(token, self.now));
                        }
                        continue;
                    }
                    let slot = &mut self.execs[exec.idx as usize];
                    slot.join_need = need;
                    slot.join_pending = children;
                    let token = slot.token;
                    for k in 0..children {
                        let branch = self.arena.child(first_child + k);
                        self.arena.retain(branch);
                        let child = self.alloc_exec(branch, token, self.now, Some(exec));
                        self.ready.push_back(child);
                    }
                    return;
                }
                FlatStep::Fail { latency } => {
                    self.abort_exec(exec, Outcome::Failed, latency);
                    return;
                }
            }
        }
    }

    fn finish_exec(&mut self, exec: ExecRef) {
        let (token, submitted, parent, outcome) = {
            let slot = &self.execs[exec.idx as usize];
            (slot.token, slot.submitted, slot.parent, slot.outcome)
        };
        self.free_exec(exec);
        match parent {
            Some(parent_ref) => {
                if self.is_current(parent_ref) {
                    let end = self
                        .arena
                        .step_len(self.execs[parent_ref.idx as usize].plan);
                    let parent_slot = &mut self.execs[parent_ref.idx as usize];
                    if parent_slot.join_need > 0 {
                        parent_slot.join_pending -= 1;
                        if outcome.is_ok() {
                            parent_slot.join_need -= 1;
                            if parent_slot.join_need == 0 {
                                self.ready.push_back(parent_ref);
                            }
                        } else if parent_slot.join_need > parent_slot.join_pending {
                            // Not enough branches left to reach quorum:
                            // the join — and with it the plan — fails.
                            parent_slot.join_need = 0;
                            parent_slot.outcome = outcome;
                            parent_slot.pc = end;
                            self.ready.push_back(parent_ref);
                        }
                    }
                }
                // A parent that already resumed (quorum met) or finished
                // ignores the straggler: its ref is stale or join_need==0.
            }
            None => {
                self.auditor.on_complete();
                self.trace(
                    TraceEventKind::Complete(outcome),
                    TraceAt::Plan(token, self.now),
                );
                self.completions.push_back(Completion {
                    token,
                    submitted,
                    finished: self.now,
                    outcome,
                });
            }
        }
    }

    fn drain_ready(&mut self) {
        while let Some(exec) = self.ready.pop_front() {
            if self.is_current(exec) {
                self.advance(exec);
            }
        }
    }

    /// Processes one event from the queue. Returns `false` when idle.
    fn step_event(&mut self) -> bool {
        let Some((at, seq, event)) = self.queue.pop() else {
            return false;
        };
        self.auditor.on_pop(at, seq);
        self.now = at;
        // The popped event's own exec advances directly — `ready` is empty
        // between events, so queueing it first and popping it right back
        // is a round-trip with no ordering effect. `ready` only carries
        // work spawned *during* an advance (join branches, resumed
        // parents), drained FIFO below.
        match event {
            Event::Resume(exec) => {
                if self.is_current(exec) {
                    self.advance(exec);
                }
            }
            Event::AcquireDone(exec, resource) => {
                self.trace(TraceEventKind::ServiceEnd, TraceAt::Step(exec, resource));
                let r = &mut self.resources[resource.0 as usize];
                r.run.served += 1;
                // Hand the slot straight to the next waiter — unless the
                // resource is down (a stalled queue drains on restore).
                if r.run.down.is_none() {
                    if let Some((next, service, enqueued)) = r.run.waiting.pop_front() {
                        r.run.waited_ns += u128::from(self.now.since(enqueued).as_nanos());
                        self.begin_service(resource, next, service);
                    } else {
                        r.run.busy -= 1;
                    }
                } else {
                    r.run.busy -= 1;
                }
                if self.is_current(exec) {
                    self.advance(exec);
                }
            }
            Event::Timeout(exec) => {
                if self.is_current(exec) {
                    // Abandon the plan wherever it is: queue entries and
                    // in-flight services it owns become stale (servers may
                    // still burn time on them, as real ones do).
                    let end = self.arena.step_len(self.execs[exec.idx as usize].plan);
                    let slot = &mut self.execs[exec.idx as usize];
                    slot.outcome = Outcome::TimedOut;
                    slot.pc = end;
                    slot.join_need = 0;
                    self.finish_exec(exec);
                }
            }
        }
        self.drain_ready();
        true
    }

    /// Runs until a completion is available (or the event queue empties).
    pub fn next_completion(&mut self) -> Option<Completion> {
        while self.completions.is_empty() {
            if !self.step_event() {
                return None;
            }
        }
        self.completions.pop_front()
    }

    /// Runs until at least one completion is buffered, then moves the
    /// whole buffered batch into `out` (preserving delivery order) in one
    /// pass — the batched form of [`Engine::next_completion`], saving a
    /// kernel round-trip per same-timestamp completion. Returns `false`
    /// when the engine went idle with nothing to deliver.
    pub fn drain_completions(&mut self, out: &mut VecDeque<Completion>) -> bool {
        while self.completions.is_empty() {
            if !self.step_event() {
                return false;
            }
        }
        out.extend(self.completions.drain(..));
        true
    }

    /// Runs all events with `time <= until`, advancing the clock to
    /// exactly `until`, and returns the completions that occurred.
    pub fn run_until(&mut self, until: SimTime) -> Vec<Completion> {
        loop {
            match self.queue.peek() {
                Some((at, _)) if at <= until => {
                    self.step_event();
                }
                _ => break,
            }
        }
        self.now = self.now.max(until);
        self.completions.drain(..).collect()
    }

    /// Runs the simulation to quiescence (no pending events).
    pub fn run_to_idle(&mut self) -> Vec<Completion> {
        while self.step_event() {}
        self.completions.drain(..).collect()
    }

    /// The feature byte every engine's checkpoint carries in its header:
    /// [`snap::FEATURE_AUDIT`], since the auditors' sections are always
    /// written. The kernel section does not repeat it; whoever opens a
    /// container checks the header's copy ([`snap::check_features`])
    /// before any codec reads the body.
    pub fn snap_features() -> u8 {
        snap::FEATURE_AUDIT
    }

    /// Serializes the engine's entire mutable state — clock, sequence
    /// counter, future-event list, resource queues and counters, exec
    /// slots (including dead slots, so generation-protected handles stay
    /// valid), and the pending ready/completion queues.
    ///
    /// The future-event list is written in sorted `(time, seq)` order
    /// with events inline, and exec plans are written *materialized*
    /// (portable [`Plan`] values, not arena indices), so a snapshot of a
    /// restored engine is byte-identical to a snapshot of the original
    /// at the same point regardless of either arena's internal layout.
    /// The span tracer is an observer, not state: it is never written, so
    /// a traced engine's snapshot is an untraced one's.
    pub fn snap_state(&self, w: &mut SnapWriter) {
        let Engine {
            now,
            seq,
            queue,
            resources,
            arena,
            execs,
            free_execs,
            ready,
            completions,
            auditor,
            tracer: _,
        } = self;
        w.put(now);
        w.put_u64(*seq);
        w.put(&queue.sorted_entries());
        w.put_u64(resources.len() as u64);
        for resource in resources {
            w.put(&resource.run);
        }
        w.put_u64(execs.len() as u64);
        for Exec {
            plan,
            pc,
            token,
            submitted,
            parent,
            join_need,
            join_pending,
            outcome,
            generation,
            live,
        } in execs
        {
            let plan = if *live {
                arena.materialize(*plan)
            } else {
                Plan::empty()
            };
            w.put(&plan);
            w.put_u32(*pc);
            w.put(token);
            w.put(submitted);
            w.put(parent);
            w.put_u32(*join_need);
            w.put_u32(*join_pending);
            w.put(outcome);
            w.put_u32(*generation);
            w.put(live);
        }
        w.put(free_execs);
        w.put(ready);
        w.put(completions);
        w.put(auditor);
    }

    /// Replaces the engine's mutable state with a previously serialized
    /// one into an engine that registered the snapshot's resources, in
    /// order: only their run state is read, and a snapshot of another
    /// resource count is refused, as is one naming an exec slot or
    /// resource past the tables it restores. Live exec plans are
    /// re-interned into a fresh arena. The engine's tracer is left as it
    /// was: a traced engine traces on from the snapshot's point.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let Engine {
            now,
            seq,
            queue,
            resources,
            arena,
            execs,
            free_execs,
            ready,
            completions,
            auditor,
            tracer: _,
        } = self;
        *now = r.get()?;
        *seq = r.u64()?;
        let entries: Vec<(SimTime, u64, Event)> = r.get()?;
        let tag = r.u64()?;
        if tag != resources.len() as u64 {
            let what = "Engine resource count";
            return Err(SnapError::BadTag { what, tag });
        }
        for resource in resources.iter_mut() {
            resource.run = r.get()?;
        }
        *arena = PlanArena::new();
        let exec_count = r.count(EXEC_MIN_SNAP_BYTES)?;
        let mut restored = Vec::with_capacity(exec_count);
        let mut owed = 0u64;
        for _ in 0..exec_count {
            let plan: Plan = r.get()?;
            let pc = r.u32()?;
            let token = r.get()?;
            let submitted = r.get()?;
            let parent: Option<ExecRef> = r.get()?;
            let join_need = r.u32()?;
            let join_pending = r.u32()?;
            let outcome = r.get()?;
            let generation = r.u32()?;
            let live: bool = r.get()?;
            owed += u64::from(live && parent.is_none());
            let plan = if live {
                arena.intern(&plan)
            } else {
                PlanId::NONE
            };
            restored.push(Exec {
                plan,
                pc,
                token,
                submitted,
                parent,
                join_need,
                join_pending,
                outcome,
                generation,
                live,
            });
        }
        *execs = restored;
        *free_execs = r.get()?;
        *ready = r.get()?;
        *completions = r.get()?;
        *auditor = r.get()?;
        // Every exec slot and resource the restored sections name is in
        // the restored tables: the kernel indexes both unchecked.
        let (slots, registered) = (execs.len(), resources.len());
        for &(_, _, event) in &entries {
            let (Event::Resume(exec) | Event::Timeout(exec) | Event::AcquireDone(exec, _)) = event;
            within("Engine exec slot", exec.idx, slots)?;
            if let Event::AcquireDone(_, id) = event {
                within("Engine resource", id.0, registered)?;
            }
        }
        arena
            .max_resource()
            .map_or(Ok(()), |id| within("Engine resource", id.0, registered))?;
        let queued = resources
            .iter()
            .flat_map(|res| res.run.waiting.iter().map(|w| w.0));
        let parents = execs.iter().filter_map(|e| e.parent);
        let refs = queued.chain(parents).chain(ready.iter().copied());
        for idx in refs.map(|e| e.idx).chain(free_execs.iter().copied()) {
            within("Engine exec slot", idx, slots)?;
        }
        let pending: Vec<(SimTime, u64)> = entries.iter().map(|&(at, seq, _)| (at, seq)).collect();
        queue.rebuild(*now, entries);
        auditor.check_restored(*now, *seq, owed, pending)
    }
}

/// Refuses an `index` a restored body names past the `len` entries of
/// the table it indexes.
fn within(what: &'static str, index: u32, len: usize) -> Result<(), SnapError> {
    let tag = u64::from(index);
    let refused = SnapError::BadTag { what, tag };
    ((index as usize) < len).then_some(()).ok_or(refused)
}

snap_struct! {
    ResourceId { 0 }
    Token { 0 }
    Completion { token, submitted, finished, outcome }
    ExecRef { idx, generation }
    PlanHandle { 0 }
    ResourceRun { busy, waiting, busy_ns, waited_ns, served, down, slowdown }
}
snap_enum!(Outcome { 0 => Ok, 1 => Failed, 2 => TimedOut, 3 => Cancelled });
snap_enum!(FailMode { 0 => Reject { latency }, 1 => Stall });
snap_enum!(Event { 0 => Resume(exec), 1 => AcquireDone(exec, resource), 2 => Timeout(exec) });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Step;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn empty_plan_completes_instantly() {
        let mut engine = Engine::new();
        engine.submit(Plan::empty(), Token(1));
        let c = engine.next_completion().expect("completion");
        assert_eq!(c.token, Token(1));
        assert_eq!(c.latency(), SimDuration::ZERO);
    }

    #[test]
    fn single_acquire_takes_service_time() {
        let mut engine = Engine::new();
        let cpu = engine.add_resource("cpu", 1);
        engine.submit(Plan::build().acquire(cpu, us(10)).finish(), Token(7));
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.latency(), us(10));
        assert_eq!(engine.served(cpu), 1);
    }

    #[test]
    fn fifo_queueing_serialises_on_capacity_one() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        for i in 0..3 {
            engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(i));
        }
        let latencies: Vec<u64> = (0..3)
            .map(|_| {
                engine
                    .next_completion()
                    .expect("completion queued by the drained run")
                    .latency()
                    .as_nanos()
                    / 1_000
            })
            .collect();
        // First waits 10us, second 20us (queued behind first), third 30us.
        assert_eq!(latencies, vec![10, 20, 30]);
    }

    #[test]
    fn capacity_two_serves_pairs_in_parallel() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("raid0", 2);
        for i in 0..4 {
            engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(i));
        }
        let latencies: Vec<u64> = (0..4)
            .map(|_| {
                engine
                    .next_completion()
                    .expect("completion queued by the drained run")
                    .latency()
                    .as_nanos()
                    / 1_000
            })
            .collect();
        assert_eq!(latencies, vec![10, 10, 20, 20]);
    }

    #[test]
    fn delays_do_not_contend() {
        let mut engine = Engine::new();
        for i in 0..5 {
            engine.submit(Plan::build().delay(us(100)).finish(), Token(i));
        }
        for _ in 0..5 {
            assert_eq!(
                engine
                    .next_completion()
                    .expect("completion queued by the drained run")
                    .latency(),
                us(100)
            );
        }
    }

    #[test]
    fn align_to_waits_for_epoch_boundary() {
        let mut engine = Engine::new();
        // Advance the clock to 3us via a dummy plan.
        engine.submit(Plan::build().delay(us(3)).finish(), Token(0));
        engine.next_completion();
        assert_eq!(engine.now(), SimTime(3_000));
        // A 10us group-commit epoch: boundary at 10us, +2us sync.
        engine.submit(Plan::build().align_to(us(10), us(2)).finish(), Token(1));
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.finished, SimTime(12_000));
        assert_eq!(c.latency(), us(9));
    }

    #[test]
    fn join_all_gates_on_slowest_branch() {
        let mut engine = Engine::new();
        let branches = vec![
            Plan::build().delay(us(5)).finish(),
            Plan::build().delay(us(50)).finish(),
            Plan::build().delay(us(20)).finish(),
        ];
        engine.submit(
            Plan::build().join_all(branches).delay(us(1)).finish(),
            Token(9),
        );
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.latency(), us(51));
    }

    #[test]
    fn join_quorum_resumes_early_but_stragglers_still_run() {
        let mut engine = Engine::new();
        let cpu = engine.add_resource("cpu", 1);
        let branches = vec![
            Plan::build().delay(us(5)).finish(),
            // The straggler occupies the CPU from 10us to 40us.
            Plan::build().delay(us(10)).acquire(cpu, us(30)).finish(),
        ];
        engine.submit(Plan::build().join_quorum(branches, 1).finish(), Token(1));
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(
            c.latency(),
            us(5),
            "quorum of 1 returns at the fastest branch"
        );
        // Straggler keeps running after the completion: CPU gets used.
        engine.run_to_idle();
        assert_eq!(engine.served(cpu), 1);
        assert!(engine.now() >= SimTime(40_000));
    }

    #[test]
    fn fire_and_forget_branches_execute_without_blocking() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        let bg = vec![Plan::build().acquire(disk, us(100)).finish()];
        engine.submit(
            Plan(vec![
                Step::Join {
                    branches: bg,
                    need: 0,
                },
                Step::Delay(us(1)),
            ]),
            Token(3),
        );
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.latency(), us(1), "need=0 join must not block");
        engine.run_to_idle();
        assert_eq!(engine.served(disk), 1, "background branch still ran");
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let mut engine = Engine::new();
        let cpu = engine.add_resource("cpu", 2);
        engine.submit(Plan::build().acquire(cpu, us(10)).finish(), Token(0));
        engine.submit(Plan::build().delay(us(100)).finish(), Token(1));
        engine.run_to_idle();
        // 10us busy on one of 2 servers over 100us → 5%.
        assert!((engine.utilization(cpu) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn submit_at_defers_start_and_latency_window() {
        let mut engine = Engine::new();
        engine.submit_at(
            SimTime(1_000_000),
            Plan::build().delay(us(5)).finish(),
            Token(2),
        );
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.submitted, SimTime(1_000_000));
        assert_eq!(c.latency(), us(5));
    }

    #[test]
    fn run_until_stops_at_boundary_and_reports_completions() {
        let mut engine = Engine::new();
        engine.submit(Plan::build().delay(us(10)).finish(), Token(0));
        engine.submit(Plan::build().delay(us(100)).finish(), Token(1));
        let first = engine.run_until(SimTime(50_000));
        assert_eq!(first.len(), 1);
        assert_eq!(engine.now(), SimTime(50_000));
        let rest = engine.run_to_idle();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn completions_preserve_time_order() {
        let mut engine = Engine::new();
        engine.submit(Plan::build().delay(us(30)).finish(), Token(0));
        engine.submit(Plan::build().delay(us(10)).finish(), Token(1));
        engine.submit(Plan::build().delay(us(20)).finish(), Token(2));
        let order: Vec<Token> = engine.run_to_idle().into_iter().map(|c| c.token).collect();
        assert_eq!(order, vec![Token(1), Token(2), Token(0)]);
    }

    #[test]
    fn exec_slots_are_reused() {
        let mut engine = Engine::new();
        for round in 0..100 {
            engine.submit(Plan::build().delay(us(1)).finish(), Token(round));
            engine.next_completion();
        }
        assert!(
            engine.execs.len() < 4,
            "slots must be recycled, got {}",
            engine.execs.len()
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_resource_panics() {
        Engine::new().add_resource("bad", 0);
    }

    #[test]
    fn writers_in_the_same_window_share_a_group_commit_boundary() {
        // Three writes arriving within one 10us epoch all finish at the
        // same boundary — the group-commit behaviour stores rely on.
        let mut engine = Engine::new();
        for (i, offset) in [1u64, 4, 9].into_iter().enumerate() {
            engine.submit(
                Plan::build()
                    .delay(SimDuration::from_micros(offset))
                    .align_to(us(10), SimDuration::ZERO)
                    .finish(),
                Token(i as u64),
            );
        }
        let completions = engine.run_to_idle();
        assert!(
            completions.iter().all(|c| c.finished == SimTime(10_000)),
            "{completions:?}"
        );
        // A write landing after the boundary joins the NEXT group.
        engine.submit(
            Plan::build()
                .delay(SimDuration::from_micros(1))
                .align_to(us(10), SimDuration::ZERO)
                .finish(),
            Token(9),
        );
        let c = engine.run_to_idle();
        assert_eq!(c[0].finished, SimTime(20_000));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn submitting_into_the_past_panics() {
        let mut engine = Engine::new();
        engine.submit(Plan::build().delay(us(10)).finish(), Token(0));
        engine.next_completion();
        engine.submit_at(SimTime(5), Plan::empty(), Token(1));
    }

    #[test]
    fn rejecting_resource_fails_plans_with_error_latency() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        engine.fail_resource(disk, FailMode::Reject { latency: us(5) });
        engine.submit(Plan::build().acquire(disk, us(100)).finish(), Token(1));
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.outcome, Outcome::Failed);
        assert_eq!(
            c.latency(),
            us(5),
            "refusal costs the error latency, not service"
        );
        assert_eq!(engine.served(disk), 0);
    }

    #[test]
    fn rejecting_resource_drains_already_queued_work() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        for i in 0..3 {
            engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(i));
        }
        // When the first request completes the second is already in
        // service and the third still queued. Failing the resource aborts
        // the queued waiter but lets in-flight work finish.
        let first = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(first.outcome, Outcome::Ok);
        engine.fail_resource(disk, FailMode::Reject { latency: us(1) });
        let second = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!((second.token, second.outcome), (Token(2), Outcome::Failed));
        let third = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!((third.token, third.outcome), (Token(1), Outcome::Ok));
    }

    #[test]
    fn stalled_resource_holds_work_until_restore() {
        let mut engine = Engine::new();
        let nic = engine.add_resource("nic", 1);
        engine.fail_resource(nic, FailMode::Stall);
        engine.submit(Plan::build().acquire(nic, us(10)).finish(), Token(1));
        // Nothing completes while stalled; the clock stays put.
        assert!(engine.run_until(SimTime(1_000_000)).is_empty());
        engine.restore_resource(nic);
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.outcome, Outcome::Ok);
        assert!(c.finished >= SimTime(1_000_000));
    }

    #[test]
    fn slowdown_multiplies_service_time() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        engine.set_resource_slowdown(disk, 4);
        engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(1));
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.latency(), us(40));
        engine.set_resource_slowdown(disk, 1);
        engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(2));
        assert_eq!(
            engine
                .next_completion()
                .expect("completion queued by the drained run")
                .latency(),
            us(10)
        );
    }

    #[test]
    fn deadline_times_out_stalled_requests() {
        let mut engine = Engine::new();
        let nic = engine.add_resource("nic", 1);
        engine.fail_resource(nic, FailMode::Stall);
        engine.submit_at_with_deadline(
            engine.now(),
            Plan::build().acquire(nic, us(10)).finish(),
            Token(1),
            us(500),
        );
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.outcome, Outcome::TimedOut);
        assert_eq!(c.latency(), us(500));
    }

    #[test]
    fn deadline_is_inert_when_work_finishes_in_time() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        engine.submit_at_with_deadline(
            engine.now(),
            Plan::build().acquire(disk, us(10)).finish(),
            Token(1),
            us(500),
        );
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.outcome, Outcome::Ok);
        assert_eq!(c.latency(), us(10));
        assert!(
            engine.run_to_idle().is_empty(),
            "stale timeout must not complete anything"
        );
    }

    #[test]
    fn join_fails_when_quorum_becomes_impossible() {
        let mut engine = Engine::new();
        let a = engine.add_resource("replica-a", 1);
        let b = engine.add_resource("replica-b", 1);
        engine.fail_resource(a, FailMode::Reject { latency: us(1) });
        engine.fail_resource(b, FailMode::Reject { latency: us(1) });
        let branches = vec![
            Plan::build().acquire(a, us(10)).finish(),
            Plan::build().acquire(b, us(10)).finish(),
        ];
        engine.submit(Plan::build().join_quorum(branches, 1).finish(), Token(9));
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(
            c.outcome,
            Outcome::Failed,
            "no branch can satisfy the quorum"
        );
    }

    #[test]
    fn join_survives_minority_branch_failure() {
        let mut engine = Engine::new();
        let a = engine.add_resource("replica-a", 1);
        let b = engine.add_resource("replica-b", 1);
        engine.fail_resource(a, FailMode::Reject { latency: us(1) });
        let branches = vec![
            Plan::build().acquire(a, us(10)).finish(),
            Plan::build().acquire(b, us(10)).finish(),
        ];
        engine.submit(Plan::build().join_quorum(branches, 1).finish(), Token(9));
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(
            c.outcome,
            Outcome::Ok,
            "the live replica satisfies the quorum"
        );
        assert_eq!(c.latency(), us(10));
    }

    #[test]
    fn queue_wait_accumulates_only_for_served_requests() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        for i in 0..3 {
            engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(i));
        }
        engine.run_to_idle();
        // First request never waits; second waits 10us, third 20us.
        assert_eq!(engine.queue_wait_ns(disk), us(30).as_nanos() as u128);
        assert_eq!(engine.service_ns(disk), us(30).as_nanos() as u128);
        assert_eq!(engine.resource_count(), 1);
        assert_eq!(engine.resource_capacity(disk), 1);
    }

    #[test]
    fn queue_wait_skips_requests_aborted_by_a_crash() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        for i in 0..2 {
            engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(i));
        }
        // At t=0 the first is in service, the second queued; the crash
        // rejects the waiter, whose wait must not be attributed.
        engine.run_until(SimTime(1_000));
        engine.fail_resource(disk, FailMode::Reject { latency: us(1) });
        engine.run_to_idle();
        assert_eq!(engine.queue_wait_ns(disk), 0);
    }

    /// An engine with its tracer on.
    fn traced() -> Engine {
        let mut engine = Engine::new();
        engine.enable_trace();
        engine
    }

    #[test]
    fn trace_records_the_full_op_lifecycle_in_order() {
        use crate::trace::TraceEventKind as K;
        let mut engine = traced();
        let disk = engine.add_resource("disk", 1);
        for i in 0..2 {
            engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(i));
        }
        engine.run_to_idle();
        let tracer = engine.tracer().expect("tracing on");
        let got: Vec<(Option<u64>, K)> = tracer
            .events()
            .iter()
            .map(|e| (e.token.map(|t| t.0), e.kind))
            .collect();
        assert_eq!(
            got,
            vec![
                (Some(0), K::Submit),
                (Some(1), K::Submit),
                (Some(0), K::ServiceStart),
                (Some(1), K::Enqueue),
                (Some(0), K::ServiceEnd),
                (Some(1), K::ServiceStart),
                (Some(0), K::Complete(Outcome::Ok)),
                (Some(1), K::ServiceEnd),
                (Some(1), K::Complete(Outcome::Ok)),
            ]
        );
        // Each op event carries the resource it touched (plan-level
        // submit/complete events carry none).
        for e in tracer.events() {
            match e.kind {
                K::Submit | K::Complete(_) => assert_eq!(e.resource, None),
                _ => assert_eq!(e.resource, Some(disk)),
            }
        }
    }

    #[test]
    fn trace_records_fault_transitions_and_timeouts() {
        use crate::trace::TraceEventKind as K;
        let mut engine = traced();
        let nic = engine.add_resource("nic", 1);
        engine.fail_resource(nic, FailMode::Stall);
        engine.submit_at_with_deadline(
            engine.now(),
            Plan::build().acquire(nic, us(10)).finish(),
            Token(7),
            us(500),
        );
        engine.run_until(SimTime(1_000_000));
        engine.restore_resource(nic);
        engine.set_resource_slowdown(nic, 2);
        engine.run_to_idle();
        let kinds: Vec<K> = engine
            .tracer()
            .expect("tracing on")
            .events()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&K::ResourceDown));
        assert!(kinds.contains(&K::ResourceRestored));
        assert!(kinds.contains(&K::Slowdown));
        assert!(kinds.contains(&K::Complete(Outcome::TimedOut)));
    }

    #[test]
    fn trace_fingerprints_match_across_identical_runs() {
        let run = |seed: u64| {
            let mut engine = traced();
            let disk = engine.add_resource("disk", 2);
            for i in 0..20 {
                engine.submit(
                    Plan::build().acquire(disk, us(1 + (seed + i) % 7)).finish(),
                    Token(i),
                );
            }
            engine.run_to_idle();
            engine.tracer().expect("tracing on").fingerprint()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different workloads must differ");
    }

    #[test]
    fn restore_resumes_fifo_service_for_stalled_queue() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        engine.fail_resource(disk, FailMode::Stall);
        for i in 0..3 {
            engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(i));
        }
        assert!(engine.run_until(SimTime(50_000)).is_empty());
        engine.restore_resource(disk);
        let tokens: Vec<u64> = (0..3)
            .map(|_| {
                engine
                    .next_completion()
                    .expect("completion queued by the drained run")
                    .token
                    .0
            })
            .collect();
        assert_eq!(tokens, vec![0, 1, 2], "stalled queue drains in FIFO order");
        assert_eq!(engine.served(disk), 3);
    }

    #[test]
    fn cancel_completes_the_plan_with_cancelled_outcome() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        let handle = engine.submit(Plan::build().acquire(disk, us(100)).finish(), Token(4));
        // Let the service start, then revoke the plan mid-flight.
        engine.run_until(SimTime(10_000));
        assert!(engine.cancel(handle), "a running plan can be cancelled");
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!((c.token, c.outcome), (Token(4), Outcome::Cancelled));
        assert_eq!(c.finished, SimTime(10_000), "cancellation takes effect now");
        // The abandoned service still burns server time, like a timeout.
        engine.run_to_idle();
        assert_eq!(engine.served(disk), 1);
    }

    #[test]
    fn cancel_emits_exactly_one_completion() {
        let mut engine = Engine::new();
        let handle = engine.submit(Plan::build().delay(us(50)).finish(), Token(1));
        assert!(engine.cancel(handle));
        let all = engine.run_to_idle();
        assert_eq!(all.len(), 1, "cancel must not double-complete: {all:?}");
        assert_eq!(all[0].outcome, Outcome::Cancelled);
        engine.auditor().assert_conserved();
    }

    #[test]
    fn cancelling_a_finished_plan_is_inert() {
        let mut engine = Engine::new();
        let handle = engine.submit(Plan::build().delay(us(5)).finish(), Token(2));
        let c = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!(c.outcome, Outcome::Ok);
        assert!(!engine.cancel(handle), "stale handle must be a no-op");
        assert!(engine.run_to_idle().is_empty());
        // A recycled slot must not be reachable through the old handle.
        let _other = engine.submit(Plan::build().delay(us(5)).finish(), Token(3));
        assert!(!engine.cancel(handle), "recycled slot needs a new handle");
        assert_eq!(engine.run_to_idle().len(), 1);
    }

    #[test]
    fn cancel_abandons_queued_work_without_serving_it() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(0));
        let queued = engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(1));
        assert!(engine.cancel(queued));
        let all = engine.run_to_idle();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].outcome, Outcome::Cancelled);
        assert_eq!(all[1].outcome, Outcome::Ok);
        // The stale queue entry is skipped when the server frees up.
        assert_eq!(engine.served(disk), 1);
        engine.auditor().assert_conserved();
    }

    #[test]
    fn cancelled_join_parent_ignores_straggler_children() {
        let mut engine = Engine::new();
        let a = engine.add_resource("replica-a", 1);
        let b = engine.add_resource("replica-b", 1);
        let branches = vec![
            Plan::build().acquire(a, us(30)).finish(),
            Plan::build().acquire(b, us(40)).finish(),
        ];
        let handle = engine.submit(Plan::build().join_all(branches).finish(), Token(6));
        engine.run_until(SimTime(1_000));
        assert!(engine.cancel(handle));
        let all = engine.run_to_idle();
        assert_eq!(all.len(), 1, "children must not complete for the parent");
        assert_eq!(all[0].outcome, Outcome::Cancelled);
        // Both branch services still ran to completion on the servers.
        assert_eq!((engine.served(a), engine.served(b)), (1, 1));
    }

    /// Untraced and traced alike: a traced engine's snapshot is an
    /// untraced one's, and the engine restored into — traced exactly when
    /// the snapshotted one is not — keeps its own tracer.
    #[test]
    fn engine_snapshot_restores_to_an_identical_future() {
        let untraced = snapshot_restores_to_an_identical_future(false);
        let traced = snapshot_restores_to_an_identical_future(true);
        assert_eq!(untraced, traced, "a tracer must not reach the snapshot");
    }

    /// Snapshots a busy engine, traced when `trace` is, restores it into
    /// one traced when it is not, and checks both play out the same
    /// future. Returns the snapshot bytes.
    fn snapshot_restores_to_an_identical_future(trace: bool) -> Vec<u8> {
        let build = |trace: bool| {
            let mut e = Engine::new();
            if trace {
                e.enable_trace();
            }
            let disk = e.add_resource("disk", 1);
            let nic = e.add_resource("nic", 2);
            (e, disk, nic)
        };
        let (mut engine, disk, nic) = build(trace);
        // Contended disk queue, a stalled NIC with a pending deadline, a
        // quorum join in flight, and an already-buffered completion.
        engine.fail_resource(nic, FailMode::Stall);
        for i in 0..4 {
            engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(i));
        }
        engine.submit_at_with_deadline(
            engine.now(),
            Plan::build().acquire(nic, us(5)).finish(),
            Token(8),
            us(90),
        );
        let branches = vec![
            Plan::build().delay(us(7)).finish(),
            Plan::build().acquire(disk, us(20)).finish(),
        ];
        engine.submit(Plan::build().join_quorum(branches, 1).finish(), Token(9));
        engine.run_until(SimTime(15_000));

        let mut w = SnapWriter::new();
        engine.snap_state(&mut w);
        let bytes = w.into_bytes();

        let (mut resumed, _, _) = build(!trace);
        let mut r = SnapReader::new(&bytes);
        resumed.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(
            resumed.tracer().map(Tracer::recorded),
            (!trace).then_some(0),
            "the restored engine keeps its own tracer"
        );

        // Re-snapshotting the restored engine reproduces the same bytes.
        let mut w2 = SnapWriter::new();
        resumed.snap_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "snapshot must round-trip exactly");

        // Both engines must play out the identical future, including new
        // work submitted after the restore point (slot reuse must match).
        let drive = |e: &mut Engine| {
            let mut out = e.run_until(SimTime(40_000));
            e.restore_resource(ResourceId(1));
            e.submit(
                Plan::build().acquire(ResourceId(0), us(3)).finish(),
                Token(30),
            );
            out.extend(e.run_to_idle());
            (out, e.now())
        };
        assert_eq!(drive(&mut engine), drive(&mut resumed));
        assert_eq!(
            engine.auditor().fingerprint(),
            resumed.auditor().fingerprint(),
            "audit fingerprint must survive the round trip"
        );
        bytes
    }

    #[test]
    fn inflated_exec_count_is_refused_before_allocating() {
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        for i in 0..4 {
            engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(i));
        }
        engine.run_until(SimTime(15_000));
        let mut w = SnapWriter::new();
        engine.snap_state(&mut w);
        let mut body = w.into_bytes();
        // The slot count follows the clock, the sequence counter, the
        // event list and the resources.
        let mut before = SnapWriter::new();
        before.put(&engine.now);
        before.put_u64(engine.seq);
        before.put(&engine.queue.sorted_entries());
        before.put_u64(engine.resources.len() as u64);
        for resource in &engine.resources {
            before.put(&resource.run);
        }
        let at = before.len();
        assert_eq!(body[at..at + 8], (engine.execs.len() as u64).to_le_bytes());
        body[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        // Sealed-valid: past the container's checksum, only the decoder
        // stands between the count and the allocator.
        let header = apm_core::snap::SnapshotHeader {
            scenario: "kernel".to_string(),
            config_fingerprint: 0,
            features: Engine::snap_features(),
            checkpoint_index: 0,
            virtual_time_ns: engine.now.0,
        };
        let sealed = apm_core::snap::seal(&header, &body);
        let (_, body) = apm_core::snap::open(&sealed).expect("sealed-valid");
        let mut fresh = Engine::new();
        fresh.add_resource("disk", 1);
        let refused = fresh.restore_state(&mut SnapReader::new(body));
        assert!(
            matches!(refused, Err(SnapError::UnexpectedEof { .. })),
            "{refused:?}"
        );
    }

    #[test]
    fn stale_timeout_event_cannot_touch_a_recycled_exec_slot() {
        // Regression for the slab's generation check: events carry
        // generation-stamped refs, so a deadline left over from a freed
        // exec must be inert against the slot's next occupant.
        let mut engine = Engine::new();
        engine.submit_at_with_deadline(
            engine.now(),
            Plan::build().delay(us(5)).finish(),
            Token(1),
            us(100),
        );
        let first = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!((first.token, first.outcome), (Token(1), Outcome::Ok));
        // The new occupant of the recycled slot is still running when the
        // old deadline fires at t=100us.
        engine.submit(Plan::build().delay(us(500)).finish(), Token(2));
        let second = engine
            .next_completion()
            .expect("completion queued by the drained run");
        assert_eq!((second.token, second.outcome), (Token(2), Outcome::Ok));
        assert_eq!(
            second.latency(),
            us(500),
            "stale timeout must not cut it short"
        );
    }

    #[test]
    fn prepared_submits_match_plain_submits_and_go_stale_on_restore() {
        let plan = |disk| Plan::build().acquire(disk, us(10)).delay(us(3)).finish();
        // Same closed loop through submit() and submit_prepared() must
        // play out identically: preparation only skips the intern walk.
        let mut plain = Engine::new();
        let disk = plain.add_resource("disk", 1);
        let mut prep = Engine::new();
        let p_disk = prep.add_resource("disk", 1);
        let prepared = prep.prepare(&plan(p_disk));
        for i in 0..4 {
            plain.submit(plan(disk), Token(i));
            prep.submit_prepared(prepared, Token(i));
        }
        assert_eq!(plain.run_to_idle(), prep.run_to_idle());

        // A restore rebuilds the arena, so the old handle is stale...
        let mut w = SnapWriter::new();
        prep.snap_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        prep.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prep.submit_prepared(prepared, Token(99));
        }));
        assert!(stale.is_err(), "stale PreparedPlan must not submit");
        // ...and re-preparing yields a working handle again.
        let fresh = prep.prepare(&plan(p_disk));
        prep.submit_prepared(fresh, Token(7));
        let out = prep.run_to_idle();
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].token, out[0].outcome), (Token(7), Outcome::Ok));
    }

    #[test]
    fn drain_completions_delivers_the_buffer_as_one_batch() {
        let mut engine = Engine::new();
        let handles: Vec<PlanHandle> = (0..3)
            .map(|i| engine.submit(Plan::build().delay(us(10)).finish(), Token(i)))
            .collect();
        for handle in handles {
            engine.cancel(handle);
        }
        let mut batch = VecDeque::new();
        assert!(engine.drain_completions(&mut batch));
        let tokens: Vec<Token> = batch.drain(..).map(|c| c.token).collect();
        assert_eq!(
            tokens,
            vec![Token(0), Token(1), Token(2)],
            "buffered completions arrive as one batch, in delivery order"
        );
        assert!(
            !engine.drain_completions(&mut batch),
            "only stale resume events remain"
        );
        assert!(batch.is_empty());
    }

    /// Satellite equivalence property: a seeded mixed schedule (delays,
    /// AlignTo, quorum joins, Fail steps, deadlines, cancels, and fault
    /// events) must play out identically through the calendar queue and
    /// the retired binary-heap reference — same completion stream, same
    /// clock, and same audit and trace fingerprints, which pin the exact
    /// `(time, seq)` pop order.
    #[test]
    fn calendar_and_reference_queues_drive_identical_schedules() {
        fn drive(mut engine: Engine) -> (Vec<Completion>, Engine) {
            let disk = engine.add_resource("disk", 2);
            let nic = engine.add_resource("nic", 1);
            let replicas: Vec<ResourceId> = (0..3)
                .map(|i| engine.add_resource(format!("replica-{i}"), 1))
                .collect();
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut out = Vec::new();
            let mut handles = Vec::new();
            for i in 0..400u64 {
                let r = next();
                let plan = match r % 6 {
                    0 => Plan::build()
                        .acquire(disk, us(1 + r % 40))
                        .delay(us(r % 9))
                        .finish(),
                    1 => Plan::build()
                        .delay(us(r % 13))
                        .acquire(nic, us(2 + r % 7))
                        .finish(),
                    2 => Plan::build()
                        .align_to(us(10), us(r % 3))
                        .acquire(disk, us(1 + r % 5))
                        .finish(),
                    3 => Plan::build()
                        .join_quorum(
                            replicas
                                .iter()
                                .map(|&rep| Plan::build().acquire(rep, us(1 + r % 20)).finish())
                                .collect(),
                            2,
                        )
                        .finish(),
                    4 => Plan(vec![
                        Step::Delay(us(r % 5)),
                        Step::Fail {
                            latency: us(1 + r % 4),
                        },
                    ]),
                    // Long think times park in the overflow tier.
                    _ => Plan::build().delay(us(40_000 + r % 9_000)).finish(),
                };
                let handle = if r % 7 == 0 {
                    engine.submit_at_with_deadline(engine.now(), plan, Token(i), us(30 + r % 60))
                } else {
                    engine.submit(plan, Token(i))
                };
                if r % 11 == 0 {
                    handles.push(handle);
                }
                if r % 53 == 0 {
                    engine.fail_resource(disk, FailMode::Reject { latency: us(1) });
                }
                if r % 53 == 17 && engine.resource_is_down(disk) {
                    engine.restore_resource(disk);
                }
                if r % 47 == 0 {
                    engine.fail_resource(nic, FailMode::Stall);
                }
                if r % 47 == 9 && engine.resource_is_down(nic) {
                    engine.restore_resource(nic);
                }
                if r % 23 == 0 {
                    if let Some(h) = handles.pop() {
                        engine.cancel(h);
                    }
                }
                out.extend(engine.run_until(SimTime(i * 5_000)));
            }
            if engine.resource_is_down(disk) {
                engine.restore_resource(disk);
            }
            if engine.resource_is_down(nic) {
                engine.restore_resource(nic);
            }
            out.extend(engine.run_to_idle());
            (out, engine)
        }
        let mut reference = Engine::with_reference_queue();
        reference.enable_trace();
        let (calendar_out, calendar) = drive(traced());
        let (reference_out, reference) = drive(reference);
        assert_eq!(
            calendar_out.len(),
            reference_out.len(),
            "both queues must deliver every completion"
        );
        assert_eq!(calendar_out, reference_out, "completion streams diverged");
        assert_eq!(calendar.now(), reference.now());
        assert_eq!(
            calendar.auditor().fingerprint(),
            reference.auditor().fingerprint(),
            "audit fingerprint pins the exact pop order"
        );
        assert_eq!(
            calendar.tracer().map(Tracer::fingerprint),
            reference.tracer().map(Tracer::fingerprint),
            "trace fingerprint must match across queue implementations"
        );
    }
}
