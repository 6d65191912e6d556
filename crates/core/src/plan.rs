//! Partition plans: the per-PSE split and profiling flags.
//!
//! "For each PSE, there is a dedicated flag controlling whether actual
//! splitting of the processing will happen there. ... At any given time,
//! the set of PSEs with their flags set comprise the actual partition of
//! the handling method" (§2.1). Here the flags are the bits of one 64-bit
//! split word — PSE `i` is bit `i`, the [`pse_mask`] encoding the journal
//! and the trace ring share — so the Reconfiguration Unit swaps a whole
//! partition with one word store while messages are in flight: adaptation
//! really is just a flag write. A handler therefore has at most 64 PSEs;
//! [`PartitionedHandler`](crate::PartitionedHandler) refuses more.
//!
//! # One consistent read
//!
//! A message needs the split word *and* the epoch that installed it: the
//! modulator stamps each continuation with that epoch, and the receiver
//! admits it against the retained plan history. The pair is published as
//! a seqlock. A sequence counter `seq` is odd while an install writes and
//! `epoch = seq / 2`:
//!
//! * [`PartitionPlan::install`], serialized by the history mutex, bumps
//!   `seq` to odd, issues a release fence, stores the split word, and
//!   bumps `seq` to even with a release store;
//! * [`PartitionPlan::snapshot`] loads `seq` (acquire), the split and
//!   profile words, issues an acquire fence and loads `seq` again; it
//!   retries while `seq` was odd or has moved.
//!
//! So a snapshot is always exactly one installed mask stamped with its own
//! epoch — never a mixture of two installs, however fast plans flap. The
//! memory-model argument is Boehm's ("Can seqlocks get along with
//! programming language memory models?", MSPC 2012). If a reader's split
//! load returns a value stored after the writer's release fence, the
//! reader's acquire fence synchronizes with that fence, so its second
//! `seq` load sees the odd value or a later one and it retries. If both
//! `seq` loads return the same even value, the first one read the
//! writer's release store, so the split store before it is the one seen.
//! The test module enumerates every interleaving of a reader with
//! back-to-back installs under sequential consistency; this argument is
//! what carries that result over to the real memory model.
//!
//! The profile word shares the read but not the lock:
//! [`PartitionPlan::set_profiled`] flips one bit atomically, and no
//! decision depends on when that lands relative to an install.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, Ordering::*};
use std::sync::{Arc, Mutex};

use mpart_analysis::{Edge, HandlerAnalysis};
use mpart_ir::IrError;
use mpart_obs::{mask_to_pses, pse_mask};

use crate::PseId;

/// The most PSEs a plan holds: one bit each of a 64-bit word.
const MAX_PSES: usize = 64;

/// Plan generations retained for in-flight continuations until
/// [`PartitionPlan::set_retention`] says otherwise.
const DEFAULT_RETENTION: usize = 8;

/// Shared, atomically-updatable split/profile flags for one
/// modulator/demodulator pair, plus the retained generation history.
///
/// ```
/// use mpart::plan::PartitionPlan;
///
/// let plan = PartitionPlan::new(3).unwrap();
/// let modulator_view = plan.clone(); // clones share the flags
/// let epoch = plan.install(&[1]);
/// let view = modulator_view.snapshot();
/// assert_eq!((view.epoch, view.active()), (epoch, vec![1]));
/// ```
#[derive(Debug, Clone)]
pub struct PartitionPlan(Arc<Shared>);

#[derive(Debug)]
struct Shared {
    len: usize,
    /// Odd while an install writes; the epoch is `seq / 2`.
    seq: Word,
    split: Word,
    profile: Word,
    /// Epochs below this were evicted from `history` and are refused.
    oldest_admissible: Word,
    /// The writer lock, and the generations it retains.
    history: Mutex<History>,
}

#[derive(Debug)]
struct History {
    retention: usize,
    /// `(epoch, split mask)` pairs, oldest first.
    generations: VecDeque<(u64, u64)>,
}

/// One plan word. Every access goes through [`Word::with`], the
/// interleaving test's scheduling point.
#[derive(Debug)]
struct Word(AtomicU64);

impl Word {
    fn with<T>(&self, access: impl FnOnce(&AtomicU64) -> T) -> T {
        step(Some(self));
        access(&self.0)
    }
}

/// One consistent read of a plan ([`PartitionPlan::snapshot`]): an
/// installed split mask and the epoch that installed it, plus the
/// profiling flags. Masks use the [`pse_mask`] encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanView {
    /// The plan generation that installed `split`.
    pub epoch: u64,
    /// The active PSEs.
    pub split: u64,
    /// The PSEs whose profiling probes run.
    pub profile: u64,
}

impl PlanView {
    /// The active PSE ids, ascending.
    pub fn active(&self) -> Vec<PseId> {
        mask_to_pses(self.split)
    }
}

impl PartitionPlan {
    /// Creates a plan for `n_pses` PSEs with all split flags clear and all
    /// profiling flags set (profile everything until statistics settle).
    ///
    /// # Errors
    ///
    /// [`IrError::Invalid`], naming the count, if `n_pses` exceeds 64.
    pub fn new(n_pses: usize) -> Result<Self, IrError> {
        if n_pses > MAX_PSES {
            let msg = format!("handler has {n_pses} PSEs; a plan holds at most {MAX_PSES}");
            return Err(IrError::Invalid(msg));
        }
        let word = |bits| Word(AtomicU64::new(bits));
        let generations = VecDeque::new();
        Ok(PartitionPlan(Arc::new(Shared {
            len: n_pses,
            seq: word(0),
            split: word(0),
            profile: word(pse_mask(&(0..n_pses).collect::<Vec<_>>())),
            oldest_admissible: word(0),
            history: Mutex::new(History { retention: DEFAULT_RETENTION, generations }),
        })))
    }

    /// The current plan generation. Starts at 0; each install bumps it.
    pub fn epoch(&self) -> u64 {
        self.0.seq.with(|w| w.load(Acquire)) / 2
    }

    /// Number of PSEs covered.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Whether the plan covers no PSEs.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// One consistent read: the split mask of one install, the epoch of
    /// that install, and the profiling flags (see the module docs).
    pub fn snapshot(&self) -> PlanView {
        loop {
            let seq = self.0.seq.with(|w| w.load(Acquire));
            if seq % 2 == 1 {
                // An install is mid-write; nothing read now could be kept.
                step(None);
                std::hint::spin_loop();
                continue;
            }
            let split = self.0.split.with(|w| w.load(Relaxed));
            let profile = self.0.profile.with(|w| w.load(Relaxed));
            fence(Acquire);
            if self.0.seq.with(|w| w.load(Relaxed)) == seq {
                return PlanView { epoch: seq / 2, split, profile };
            }
        }
    }

    /// Whether profiling is active at `pse`.
    pub fn is_profiled(&self, pse: PseId) -> bool {
        self.0.profile.with(|w| w.load(Acquire)) >> pse & 1 == 1
    }

    /// Sets the profiling flag of one PSE.
    pub fn set_profiled(&self, pse: PseId, on: bool) {
        assert!(pse < self.len(), "pse {pse} out of range ({} PSEs)", self.len());
        let bit = 1u64 << pse;
        self.0
            .profile
            .with(|w| if on { w.fetch_or(bit, Release) } else { w.fetch_and(!bit, Release) });
    }

    /// Installs a whole new active set — exactly the PSEs in `active` are
    /// split afterwards — records the generation in the retained history,
    /// and returns its epoch.
    ///
    /// The mask is one word written inside the seqlock's odd phase, so a
    /// concurrent [`snapshot`](Self::snapshot) sees either the previous
    /// install or this one, each with its own epoch. Every install,
    /// whoever makes it, keeps its history entry, so the stale-plan
    /// horizon advances past all of them.
    ///
    /// # Panics
    ///
    /// If `active` names a PSE the plan does not cover.
    pub fn install(&self, active: &[PseId]) -> u64 {
        assert!(active.iter().all(|&p| p < self.len()), "plan {active:?} names an unknown PSE");
        let mask = pse_mask(active);
        let mut history = self.0.history.lock().expect("plan history poisoned");
        // Makes `seq` odd; `done` is the even value that publishes.
        let done = self.0.seq.with(|w| w.fetch_add(1, Relaxed)) + 2;
        fence(Release);
        self.0.split.with(|w| w.store(mask, Relaxed));
        self.0.seq.with(|w| w.store(done, Release));
        let epoch = done / 2;
        history.generations.push_back((epoch, mask));
        self.evict(&mut history);
        epoch
    }

    /// Drops generations past the retention bound and publishes the new
    /// admission horizon.
    fn evict(&self, history: &mut History) {
        while history.generations.len() > history.retention {
            let (evicted, _) = history.generations.pop_front().expect("over retention");
            self.0.oldest_admissible.with(|w| w.store(evicted + 1, Release));
        }
    }

    /// Replaces how many plan generations are retained for in-flight
    /// messages (default 8; minimum 1). Shrinking evicts immediately.
    pub fn set_retention(&self, retention: usize) {
        let mut history = self.0.history.lock().expect("plan history poisoned");
        history.retention = retention.max(1);
        self.evict(&mut history);
    }

    /// The oldest plan epoch the demodulator still admits. Messages
    /// stamped below this are rejected with [`IrError::StalePlan`].
    pub fn oldest_admissible_epoch(&self) -> u64 {
        self.0.oldest_admissible.with(|w| w.load(Acquire))
    }

    /// The active set installed at `epoch`, if that generation is still
    /// retained.
    pub fn active_at(&self, epoch: u64) -> Option<Vec<PseId>> {
        let history = self.0.history.lock().expect("plan history poisoned");
        history.generations.iter().find(|(e, _)| *e == epoch).map(|&(_, mask)| mask_to_pses(mask))
    }

    /// The currently-active PSE ids, ascending.
    pub fn active(&self) -> Vec<PseId> {
        self.snapshot().active()
    }

    /// Whether `active` names exactly the currently-split PSEs (order and
    /// duplicates ignored).
    pub fn active_eq(&self, active: &[PseId]) -> bool {
        active.iter().all(|&p| p < self.len()) && pse_mask(active) == self.snapshot().split
    }

    /// Validates that the active set forms a *cut*: with the active PSE
    /// edges removed, no terminal — stop node or exit — is reachable from
    /// the start node. A plan that is not a cut would let the modulator
    /// run into a stop node.
    ///
    /// The walk covers the whole Unit Graph, loop back edges included, in
    /// time linear in its size; it is what "every target path crosses an
    /// active edge" means, without listing the paths.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Continuation`] naming the first terminal reached.
    pub fn validate_cut(&self, analysis: &HandlerAnalysis) -> Result<(), IrError> {
        validate_mask(self.snapshot().split, analysis)
    }
}

/// [`PartitionPlan::validate_cut`] for a split mask that is not installed
/// anywhere (a candidate under `Prepare`).
pub(crate) fn validate_mask(split: u64, analysis: &HandlerAnalysis) -> Result<(), IrError> {
    let active = mask_to_pses(split);
    let cut: Vec<Edge> = active.iter().map(|&p| analysis.pses()[p].edge).collect();
    let ug = &analysis.ug;
    let mut seen = vec![false; ug.len()];
    let mut stack = Vec::new();
    if !cut.contains(&Edge::entry(ug.start())) {
        stack.push(ug.start());
    }
    while let Some(u) = stack.pop() {
        if std::mem::replace(&mut seen[u], true) {
            continue;
        }
        if analysis.stops.is_stop(u) || ug.succs(u).is_empty() {
            let msg = format!("plan {active:?} leaves a path from the start to pc {u} uncut");
            return Err(IrError::Continuation(msg));
        }
        stack.extend(ug.succs(u).iter().copied().filter(|&v| !cut.contains(&Edge::new(u, v))));
    }
    Ok(())
}

/// The interleaving test's scheduling point: `Some(word)` before every
/// access to a plan word, `None` when a reader sees an install mid-write
/// and cannot progress until the writer moves. Free outside that test.
#[cfg(not(test))]
fn step(_: Option<&Word>) {}

#[cfg(test)]
use tests::step;

#[cfg(test)]
mod tests {
    use super::*;
    use mpart_analysis::analyze;
    use mpart_cost::DataSizeModel;
    use mpart_ir::parse::parse_program;

    #[test]
    fn flags_toggle() {
        let plan = PartitionPlan::new(3).unwrap();
        assert!(plan.active().is_empty());
        assert!(plan.is_profiled(0));
        plan.install(&[0]);
        plan.set_profiled(2, false);
        assert!(!plan.is_profiled(2));
        assert_eq!(plan.active(), vec![0]);
        assert_eq!(plan.snapshot(), PlanView { epoch: 1, split: 0b1, profile: 0b011 });
    }

    #[test]
    fn install_replaces_active_set() {
        let plan = PartitionPlan::new(4).unwrap();
        plan.install(&[0, 2]);
        assert_eq!(plan.active(), vec![0, 2]);
        plan.install(&[3]);
        assert_eq!(plan.active(), vec![3]);
    }

    #[test]
    fn installs_bump_the_epoch() {
        let plan = PartitionPlan::new(3).unwrap();
        assert_eq!(plan.epoch(), 0);
        assert_eq!(plan.install(&[0]), 1);
        assert_eq!(plan.install(&[1, 2]), 2);
        assert_eq!(plan.epoch(), 2);
        let clone = plan.clone();
        plan.install(&[0]);
        assert_eq!(clone.epoch(), 3, "clones share the epoch counter");
    }

    #[test]
    fn active_eq_ignores_order_and_duplicates() {
        let plan = PartitionPlan::new(4).unwrap();
        plan.install(&[0, 2]);
        assert!(plan.active_eq(&[2, 0]));
        assert!(plan.active_eq(&[0, 2, 2]));
        assert!(!plan.active_eq(&[0]));
        assert!(!plan.active_eq(&[0, 2, 3]));
        assert!(!plan.active_eq(&[0, 2, 9]), "out-of-range id never matches");
        assert!(!plan.active_eq(&[0, 2, 64]), "nor does one past the mask");
    }

    #[test]
    fn clones_share_flags() {
        let plan = PartitionPlan::new(2).unwrap();
        let clone = plan.clone();
        plan.install(&[1]);
        plan.set_profiled(0, false);
        assert_eq!(clone.active(), vec![1], "clone must observe the shared flags");
        assert!(!clone.is_profiled(0));
    }

    #[test]
    fn cut_validation() {
        let src = r#"
            fn f(x) {
                a = x + 1
                native out(a)
                return
            }
        "#;
        let program = parse_program(src).unwrap();
        let model = DataSizeModel::new();
        let ha = analyze(&program, "f", &model).unwrap();
        let plan = PartitionPlan::new(ha.pses().len()).unwrap();
        assert!(plan.validate_cut(&ha).is_err(), "empty plan is not a cut");
        // Activating every PSE is always a valid cut.
        plan.install(&(0..ha.pses().len()).collect::<Vec<_>>());
        plan.validate_cut(&ha).unwrap();
    }

    /// A ladder of `diamonds` sequential branches (2^diamonds paths into
    /// `sink`), optionally behind an early `if x == 99 goto alt`.
    fn churn(diamonds: usize, early_exit: bool) -> Arc<mpart_ir::Program> {
        let mut src = String::from("fn churn(x) {\n");
        if early_exit {
            src.push_str("  if x == 99 goto alt\n");
        }
        src.push_str("  t = x\n");
        for i in 0..diamonds {
            let step = i + 1;
            src.push_str(&format!(
                "  b{i} = t - {i}\n  if b{i} == 0 goto skip{i}\n  t = t + {step}\nskip{i}:\n"
            ));
        }
        src.push_str("  native sink(t)\n  return t\n");
        if early_exit {
            src.push_str("alt:\n  y = x * 2\n  native other(y)\n  return 0\n");
        }
        src.push_str("}\n");
        Arc::new(parse_program(&src).unwrap())
    }

    #[test]
    fn a_cut_of_every_ladder_path_that_misses_the_early_exit_is_refused() {
        // 4 096 ladder paths precede `alt` in depth-first order. `{(2,3)}`
        // crosses every one of them, but not `alt`'s path to `other`.
        let handler = crate::PartitionedHandler::analyze(
            churn(12, true),
            "churn",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        let ha = handler.analysis();
        assert!(ha.pse_for_edge(Edge::new(40, 41)).is_some(), "alt's split edge is a PSE");
        let ladder = ha.pse_for_edge(Edge::new(2, 3)).expect("(2,3) is a PSE");
        assert!(handler.validate_candidate(&[ladder]).is_err());
        let plan = PartitionPlan::new(ha.pses().len()).unwrap();
        plan.install(&[ladder]);
        assert!(plan.validate_cut(ha).is_err());
        let alt = ha.pse_for_edge(Edge::new(40, 41)).unwrap();
        handler.validate_candidate(&[ladder, alt]).unwrap();
    }

    #[test]
    fn forty_diamond_ladder_has_a_pse_per_diamond() {
        let ha = analyze(&churn(40, false), "churn", &DataSizeModel::new()).unwrap();
        assert_eq!(ha.dag().path_count(), 1 << 40);
        assert_eq!(ha.pses().len(), 41);
        let entry = PartitionPlan::new(41).unwrap();
        entry.install(&[40]);
        entry.validate_cut(&ha).unwrap();
    }

    #[test]
    fn a_stop_node_reached_before_the_cut_is_refused() {
        // The native call in one arm ends that arm's target path, so a cut
        // after the merge leaves it uncut even though no exit is reachable.
        let src = r#"
            fn f(x) {
                if x == 0 goto quiet
                native log(x)
            quiet:
                y = x + 1
                native out(y)
                return y
            }
        "#;
        let ha = analyze(&parse_program(src).unwrap(), "f", &DataSizeModel::new()).unwrap();
        let merged = ha.pse_for_edge(Edge::new(2, 3)).expect("(2,3) is a PSE");
        let plan = PartitionPlan::new(ha.pses().len()).unwrap();
        plan.install(&[merged]);
        assert!(plan.validate_cut(&ha).is_err());
    }

    pub(super) use interleave::step;

    /// Exhaustive interleavings of one reader's snapshots with a writer's
    /// back-to-back installs.
    ///
    /// The writer runs on its own thread and blocks at every scheduling
    /// point ([`step`]) until the controller grants it one access. The
    /// reader runs on the controller's thread: before each of its loads
    /// the controller may first let the writer run, so one run is one
    /// interleaving, chosen by a vector of binary decisions. The writer
    /// never reads what the reader writes, so a reader's run is fixed by
    /// which store each of its loads reads from. The decision before a
    /// load of word `w` is therefore "reader next" or "writer next, up to
    /// and including its next store to `w`": every interleaving reads from
    /// the same stores as one reached that way (move each load back to
    /// just after the store it reads), and a depth-first search over the
    /// decision vectors visits them all. A reader that sees an odd `seq`
    /// parks until the writer's next `seq` store (re-reading an unchanged
    /// odd `seq` is the same state), so the search is finite.
    ///
    /// Every run asserts that each snapshot is exactly `(e, mask installed
    /// at e)` for an epoch `e` of the run, that consecutive snapshots never
    /// go back to an older epoch, and that `oldest_admissible_epoch` never
    /// goes back either. The enumeration is sequentially consistent; the
    /// fence argument in the module docs covers the weaker orderings.
    mod interleave {
        use std::cell::RefCell;
        use std::rc::Rc;
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        use std::sync::Arc;

        use mpart_obs::pse_mask;

        use super::super::{PartitionPlan, PlanView, Word};
        use crate::PseId;

        type Hook = Box<dyn FnMut(Option<&Word>)>;

        thread_local! {
            static HOOK: RefCell<Option<Hook>> = RefCell::new(None);
        }

        pub(in super::super) fn step(word: Option<&Word>) {
            HOOK.with(|hook| {
                if let Some(hook) = hook.borrow_mut().as_mut() {
                    hook(word);
                }
            });
        }

        fn set_hook(hook: Option<Hook>) {
            HOOK.with(|h| *h.borrow_mut() = hook);
        }

        fn id(word: &Word) -> usize {
            word as *const Word as usize
        }

        /// The writer's half of the hand-off: it announces each access it
        /// reaches (and the word it touches) and waits until granted.
        #[derive(Default)]
        struct Gate {
            /// Scheduling points reached, or [`FINISHED`].
            arrived: AtomicUsize,
            granted: AtomicUsize,
            pending: AtomicUsize,
        }

        const FINISHED: usize = usize::MAX;

        impl Gate {
            fn wait_until(cond: impl Fn() -> bool) {
                while !cond() {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
            }

            /// The writer is parked at a scheduling point or finished.
            fn settled(&self) -> bool {
                self.arrived.load(SeqCst) > self.granted.load(SeqCst)
            }

            fn done(&self) -> bool {
                self.arrived.load(SeqCst) == FINISHED
            }

            /// Lets the writer run up to and including its next access to
            /// `word` (or to its end).
            fn run_through(&self, word: usize) {
                while !self.done() {
                    let pending = self.pending.load(SeqCst);
                    self.granted.fetch_add(1, SeqCst);
                    Self::wait_until(|| self.settled());
                    if pending == word {
                        return;
                    }
                }
            }
        }

        #[derive(Clone, Copy)]
        enum Op {
            Install(&'static [PseId]),
            Profile(PseId, bool),
        }

        const A: &[PseId] = &[0, 2];
        const B: &[PseId] = &[1];
        const PSES: usize = 3;
        const SNAPSHOTS: usize = 2;

        /// What the writer leaves behind, op by op, for the assertions:
        /// every `(epoch, split)` installed and every profile word.
        fn expected(script: &[Op]) -> (Vec<(u64, u64)>, Vec<u64>) {
            let mut installs = vec![(1, pse_mask(A))];
            let mut profiles = vec![pse_mask(&[0, 1, 2])];
            for op in script {
                match *op {
                    Op::Install(active) => {
                        installs.push((installs.len() as u64 + 1, pse_mask(active)));
                    }
                    Op::Profile(pse, on) => {
                        let last = *profiles.last().unwrap();
                        profiles.push(if on { last | 1 << pse } else { last & !(1 << pse) });
                    }
                }
            }
            (installs, profiles)
        }

        /// One interleaving: replays `decisions`, then takes "reader next"
        /// at every later choice. Returns the decisions actually taken and
        /// the snapshots the reader made.
        fn run(script: &'static [Op], decisions: &[bool]) -> (Vec<bool>, Vec<PlanView>) {
            let plan = PartitionPlan::new(PSES).unwrap();
            plan.set_retention(1);
            plan.install(A);
            let gate = Arc::new(Gate::default());
            let taken = Rc::new(RefCell::new(Vec::new()));
            let mut views: Vec<(PlanView, u64)> = Vec::new();
            std::thread::scope(|scope| {
                let writer_gate = Arc::clone(&gate);
                let writer_plan = plan.clone();
                scope.spawn(move || {
                    let gate = Arc::clone(&writer_gate);
                    set_hook(Some(Box::new(move |word| {
                        gate.pending.store(word.map_or(0, id), SeqCst);
                        let me = gate.arrived.fetch_add(1, SeqCst) + 1;
                        Gate::wait_until(|| gate.granted.load(SeqCst) >= me);
                    })));
                    for op in script {
                        match *op {
                            Op::Install(active) => drop(writer_plan.install(active)),
                            Op::Profile(pse, on) => writer_plan.set_profiled(pse, on),
                        }
                    }
                    set_hook(None);
                    writer_gate.arrived.store(FINISHED, SeqCst);
                });
                Gate::wait_until(|| gate.settled());

                let (hook_gate, hook_taken) = (Arc::clone(&gate), Rc::clone(&taken));
                let seq = id(&plan.0.seq);
                let replay = decisions.to_vec();
                let mut idle_parks = 0u32;
                set_hook(Some(Box::new(move |word| {
                    let Some(word) = word else {
                        // Parked on an odd seq: only a seq store can help.
                        idle_parks += u32::from(hook_gate.done());
                        assert!(idle_parks < 1_000, "reader spins on an odd seq forever");
                        hook_gate.run_through(seq);
                        return;
                    };
                    let mut taken = hook_taken.borrow_mut();
                    while !hook_gate.done() {
                        let writer_next = replay.get(taken.len()).copied().unwrap_or(false);
                        taken.push(writer_next);
                        if !writer_next {
                            break;
                        }
                        hook_gate.run_through(id(word));
                    }
                })));
                for _ in 0..SNAPSHOTS {
                    views.push((plan.snapshot(), plan.oldest_admissible_epoch()));
                }
                set_hook(None);
                gate.run_through(0);
            });

            let (installs, profiles) = expected(script);
            let trace = format!("decisions {:?}, views {views:?}", taken.borrow());
            for (view, _) in &views {
                assert!(
                    installs.contains(&(view.epoch, view.split)),
                    "torn snapshot {view:?}: installs were {installs:?}; {trace}"
                );
                assert!(profiles.contains(&view.profile), "profile {view:?}; {trace}");
            }
            for pair in views.windows(2) {
                assert!(pair[0].0.epoch <= pair[1].0.epoch, "epoch went back; {trace}");
                assert!(pair[0].1 <= pair[1].1, "oldest admissible went back; {trace}");
            }
            let (last_epoch, last_split) = *installs.last().unwrap();
            let after = plan.snapshot();
            assert_eq!((after.epoch, after.split), (last_epoch, last_split), "{trace}");
            assert_eq!(plan.oldest_admissible_epoch(), last_epoch, "retention 1; {trace}");
            (taken.take(), views.into_iter().map(|(view, _)| view).collect())
        }

        /// Visits every interleaving of one reader with `script` (up to
        /// the reads-from equivalence above) and checks that, between them,
        /// the runs observed every install. Returns how many runs it took.
        fn explore(script: &'static [Op]) -> usize {
            let (installs, _) = expected(script);
            let mut seen = std::collections::BTreeSet::new();
            let mut decisions = Vec::new();
            let mut runs = 0;
            loop {
                let views;
                (decisions, views) = run(script, &decisions);
                seen.extend(views.iter().map(|view| (view.epoch, view.split)));
                runs += 1;
                // Next in depth-first order: flip the deepest "reader next"
                // still untried to "writer next"; drop everything after it.
                while decisions.last() == Some(&true) {
                    decisions.pop();
                }
                match decisions.last_mut() {
                    Some(last) => *last = true,
                    None => break,
                }
            }
            assert_eq!(seen.into_iter().collect::<Vec<_>>(), installs, "some install unseen");
            runs
        }

        #[test]
        fn a_to_b() {
            assert!(explore(&[Op::Install(B)]) > 100);
        }

        #[test]
        fn a_to_b_to_a() {
            assert!(explore(&[Op::Install(B), Op::Install(A)]) > 1_000);
        }

        #[test]
        fn a_to_b_to_a_with_a_profile_flip_between() {
            let script = &[Op::Install(B), Op::Profile(1, false), Op::Install(A)];
            assert!(explore(script) > 1_000);
        }
    }
}
