//! The AnyDB engine: boots AnyComponents and drives OLTP phases.
//!
//! The engine realizes the paper's per-query architecture freedom in its
//! simplest honest form: the *routing decision* — which AC an event goes
//! to, whole transactions vs. op groups, pipelined vs. per-op round trips
//! — is taken per transaction window according to the
//! [`DispatchPlan`], over one shared pool of generic ACs. Switching
//! strategy requires no reconfiguration of the components themselves;
//! they just receive different events (§2.1: "shift its architecture
//! just in an instant").
//!
//! ## Live morphing
//!
//! With [`EngineConfig::morph`] set, the configured strategy is only the
//! *initial* plan: driver 0 runs a [`MorphController`] over the phase's
//! load telemetry and installs new strategies into the plan while the
//! phase runs. Plans are epoch-tagged and adopted only at transaction-
//! window boundaries, under a swap protocol that keeps mixed-mode
//! execution off the data (DESIGN.md §11):
//!
//! 1. A driver noticing a newer plan epoch first **drains** its own
//!    in-flight transactions — they finish under the plan that admitted
//!    them, and their completions count normally.
//! 2. It then **rendezvouses** with every other driver at a `SwapSync`
//!    barrier. Only when all drivers have drained does anyone admit under
//!    the new plan, so whole-transaction execution (no order gates) and
//!    decomposed stage execution (gate-ordered) never interleave on the
//!    same warehouses — that overlap is the one torn-routing schedule
//!    that could break serializability.
//! 3. Stamp density survives the gap: nothing stamps the sequencer while
//!    a shared-nothing plan runs, and every pipelined stamp's envelopes
//!    were fully consumed before the swap, so the order gates resume
//!    exactly where the sequencer does.
//!
//! Static strategies are the degenerate case: a plan that is never
//! re-installed, one epoch, `PhaseResult::strategies == [cfg.strategy]`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use anydb_common::metrics::{Counter, LoadSnapshot};
use anydb_common::{AcId, QueryId};
use anydb_stream::adaptive::AdaptiveBatch;
use anydb_stream::inbox::InboxSender;
use anydb_txn::history::History;
use anydb_txn::sequencer::Sequencer;
use anydb_txn::ts::TxnIdGen;
use anydb_workload::chbench::Q3Spec;
use anydb_workload::phases::{Phase, PhaseKind, PhaseSchedule};
use anydb_workload::tpcc::gen::{MixGen, PaymentGen};
use anydb_workload::tpcc::TpccDb;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::component::AnyComponent;
use crate::event::{Completion, DoneBatch, Event, OpEnvelope, TxnTracker};
use crate::morph::{MorphConfig, MorphController};
use crate::strategy::{
    payment_precise_groups, payment_stage_groups, stage_ac, BatchMode, DispatchBatcher,
    DispatchPlan, Strategy,
};

/// Completion groups pulled per `try_recv_many` crossing when a driver
/// bulk-drains its done channel.
const COMPLETION_CHUNK: usize = 32;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Execution strategy for this run — the whole run's when [`morph`]
    /// is `None`, the initial plan otherwise.
    ///
    /// [`morph`]: EngineConfig::morph
    pub strategy: Strategy,
    /// Number of worker ACs (the paper's precise intra-txn result uses 2).
    pub acs: u32,
    /// Client driver threads.
    pub drivers: u32,
    /// Outstanding transactions per driver for pipelined strategies.
    pub window: usize,
    /// Outstanding OLAP queries during HTAP phases: the driver keeps this
    /// many Q3 requests (with rotating date windows) in flight against
    /// the OLAP AC, whose drain chunk groups them into shared admission
    /// windows — one hull-predicate scan plus per-member refinement
    /// instead of N independent pipelines (DESIGN.md §7).
    ///
    /// This is a *live* knob now, not a constant: the phase scales it by
    /// its OLAP stream count ([`PhaseKind::olap_streams`]), and when
    /// morphing is on the controller re-targets it every window from the
    /// observed OLTP/OLAP mix.
    pub olap_window: usize,
    /// Payment fraction for the shared-nothing mix; decomposed strategies
    /// are payment-only (the paper's Figure 5 workload).
    pub payment_fraction: f64,
    /// Event batch sizing: how many events the drivers group per
    /// destination AC before sending (as one [`Event::OpBatch`] / bulk
    /// inbox insert) and how many events an AC drains and dispatches per
    /// wakeup.
    ///
    /// This is the throughput/latency knob of the batched event streams.
    /// [`BatchMode::Static`]`(1)` restores per-event dispatch (lowest
    /// latency, highest per-event overhead); larger static values
    /// amortize the queue handshake and gate lookups over the group.
    /// [`BatchMode::Adaptive`], the default, sizes batches online from
    /// the queues' depth mirrors — deep under load, per-event when idle.
    /// [`BatchMode::Slo`] instead steers against a p99 queueing-delay
    /// budget, fed by each driver's measured per-window drain wait.
    pub batch: BatchMode,
    /// Live workload morphing: when set, driver 0 runs a
    /// [`MorphController`] over the phase's telemetry and re-installs the
    /// dispatch plan at window boundaries ([`acs`] in the morph config is
    /// overridden with the engine's real AC count). `None` pins the plan
    /// for the whole run.
    ///
    /// [`acs`]: MorphConfig::acs
    pub morph: Option<MorphConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::SharedNothing,
            acs: 2,
            drivers: 1,
            window: 32,
            olap_window: 8,
            payment_fraction: 1.0,
            batch: BatchMode::default(),
            morph: None,
        }
    }
}

/// Result of one phase run (same shape as the baseline's).
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Completed transactions.
    pub committed: u64,
    /// OLAP queries completed by dedicated ACs during the phase.
    pub olap_queries: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Every strategy the dispatch plan carried, in install order. A
    /// static run records exactly its configured strategy; a morphing run
    /// records the sequence the controller actually executed.
    pub strategies: Vec<Strategy>,
    /// Plan switches taken during the phase (`strategies.len() - 1`).
    pub switches: u64,
}

impl PhaseResult {
    /// OLTP throughput.
    pub fn tx_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.committed as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Rendezvous for plan swaps: no driver admits under a new plan epoch
/// until every active driver has drained the transactions it admitted
/// under the old one. Without this, one driver could run whole
/// transactions at a home-warehouse AC while another still has the same
/// warehouses' ops decomposed across stage ACs — the gates order only the
/// decomposed side, so the interleaving would be unserializable.
///
/// At most one install can be gathering at a time: the installer (driver
/// 0) rendezvouses at its own install's barrier before it can install
/// again. Arrivals use a timed wait purely as a safety valve — a peer
/// that exits early retires and wakes everyone.
struct SwapSync {
    state: Mutex<SwapState>,
    cv: Condvar,
}

struct SwapState {
    /// Drivers still running (arrivals wait only for live peers).
    active: usize,
    /// Barrier generation currently gathering (= plan epoch).
    epoch: u64,
    /// Drivers arrived at `epoch`, drained.
    arrived: usize,
}

impl SwapSync {
    fn new(active: usize) -> Self {
        Self {
            state: Mutex::new(SwapState {
                active,
                epoch: 0,
                arrived: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Called by a driver that has drained its in-flight work and wants
    /// to admit under plan epoch `e`; blocks until every active driver
    /// has done the same.
    fn arrive(&self, e: u64) {
        let mut st = self.state.lock().unwrap();
        if e > st.epoch {
            st.epoch = e;
            st.arrived = 0;
        } else if e < st.epoch {
            // A barrier that already released; the drain this driver just
            // did is all the newer one needs from it.
            return;
        }
        st.arrived += 1;
        if st.arrived >= st.active {
            self.cv.notify_all();
            return;
        }
        while st.epoch == e && st.arrived < st.active {
            let (g, _) = self.cv.wait_timeout(st, Duration::from_millis(1)).unwrap();
            st = g;
        }
    }

    /// A driver leaving the phase stops counting toward the barrier.
    fn retire(&self) {
        let mut st = self.state.lock().unwrap();
        st.active = st.active.saturating_sub(1);
        self.cv.notify_all();
    }
}

/// Retires the driver on every exit path — deadline, channel disconnect,
/// or panic — so peers waiting at a swap barrier are never stranded.
struct Retire<'a>(&'a SwapSync);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        self.0.retire();
    }
}

/// Everything one phase's drivers share.
struct PhaseShared<'a> {
    senders: &'a [InboxSender<Event>],
    committed: &'a Counter,
    sequencer: &'a Sequencer,
    plan: &'a DispatchPlan,
    swap: &'a SwapSync,
    /// Live OLAP admission target, read by the query driver per refill
    /// and re-targeted by the morph controller.
    olap_window: &'a AtomicUsize,
    olap_done: &'a Counter,
    olap_admitted: &'a Counter,
}

/// Minimum admissions behind one skew-attribution sample. The admission
/// mix is an *estimate* of the home-partition distribution; below this
/// many observations it carries no signal (a handful of txns sharing a
/// home by chance would read as total skew against the whole backlog),
/// so counters accumulate across windows until the estimate is earned.
const MIX_SAMPLE_MIN: u64 = 64;

/// Per-driver state that survives plan swaps: the generators keep their
/// RNG positions, the batch controllers keep their levels, and the done
/// channel keeps collecting completions admitted under any epoch.
struct DriverState {
    mix: MixGen,
    pay: PaymentGen,
    done_tx: Sender<DoneBatch>,
    done_rx: Receiver<DoneBatch>,
    inflight: usize,
    ready: Vec<DoneBatch>,
    /// Whole-transaction batch controller (shared-nothing windows).
    ctrl: AdaptiveBatch,
    /// Envelope batcher (pipelined windows).
    batcher: DispatchBatcher,
    /// Per-AC whole-transaction buffers (shared-nothing windows).
    pending: Vec<Vec<Event>>,
    /// Admissions since the last attribution sample, bucketed by *home*
    /// AC (the AC the txn's warehouse would route to under
    /// shared-nothing) — the strategy-invariant skew signal. Accumulates
    /// across windows until [`MIX_SAMPLE_MIN`] admissions back the mix.
    admitted: Vec<u64>,
    /// Telemetry accumulated since the last controller observation:
    /// `(samples, hot, total)` per [`LoadSnapshot`]'s depth fields.
    depth: (u64, u64, u64),
}

impl DriverState {
    /// Folds one post-flush telemetry sample into the accumulators: real
    /// queued backlog from the AC depth mirrors, attributed to home
    /// partitions by this window's admission mix. Under shared-nothing
    /// routing the hot partition's backlog *is* the hot AC's queue;
    /// decomposed windows spread the same work over stage ACs, so the
    /// attribution keeps the skew signal comparable across strategies —
    /// without it the controller would see skew vanish the moment it
    /// decomposed, and ping-pong.
    fn sample_depths(&mut self, senders: &[InboxSender<Event>]) {
        let admitted: u64 = self.admitted.iter().sum();
        if admitted < MIX_SAMPLE_MIN {
            // Too few admissions to estimate a mix: a steady-state window
            // admits only what just completed, and three txns that happen
            // to share a home would read as total skew against the whole
            // backlog. Keep accumulating; stalled windows add nothing.
            return;
        }
        let hot_admitted = self.admitted.iter().copied().max().unwrap_or(0);
        self.admitted.iter_mut().for_each(|c| *c = 0);
        let total: u64 = senders.iter().map(|s| s.len() as u64).sum();
        let hot = (total as f64 * hot_admitted as f64 / admitted as f64).round() as u64;
        self.depth = (self.depth.0 + 1, self.depth.1 + hot, self.depth.2 + total);
    }
}

/// Applies one completion group to a driver's window accounting. OLTP
/// driver channels only ever carry transaction notices; a query
/// completion here would mean a channel mix-up.
fn absorb_completions(batch: DoneBatch, inflight: &mut usize, committed: &Counter) {
    for c in batch.0 {
        match c {
            Completion::Txn(done) => {
                *inflight -= 1;
                if done.ok {
                    committed.incr();
                }
            }
            Completion::Query { .. } => {
                debug_assert!(false, "query completion on an OLTP driver channel");
            }
        }
    }
}

/// Q3 parameters for the windowed OLAP driver: every member shares the
/// "since 2007" lower bound but rotates among four upper bounds, so a
/// window of concurrent queries carries genuinely different predicates —
/// the shared pipeline has to hull-scan and refine per member, not just
/// deduplicate identical requests.
fn windowed_q3_spec(qid: u64) -> Q3Spec {
    const YEAR_ENDS: [i64; 4] = [20081231, 20101231, 20121231, i64::MAX];
    Q3Spec {
        entry_date_max: YEAR_ENDS[(qid % 4) as usize],
        ..Q3Spec::default()
    }
}

/// The architecture-less engine.
pub struct AnyDbEngine {
    db: Arc<TpccDb>,
    cfg: EngineConfig,
    history: Option<Arc<History>>,
    ids: Arc<TxnIdGen>,
}

impl AnyDbEngine {
    /// Creates an engine over a loaded database.
    pub fn new(db: Arc<TpccDb>, cfg: EngineConfig) -> Self {
        assert!(cfg.acs > 0 && cfg.drivers > 0 && cfg.window > 0 && cfg.olap_window > 0);
        // Validate the batch range and morph config eagerly (their
        // constructors assert).
        let _ = cfg.batch.controller();
        if let Some(mc) = cfg.morph {
            let _ = MorphController::new(cfg.strategy, MorphConfig { acs: cfg.acs, ..mc });
        }
        Self {
            db,
            cfg,
            history: None,
            ids: Arc::new(TxnIdGen::new()),
        }
    }

    /// Attaches an operation history for serializability checking.
    pub fn with_history(mut self, history: Arc<History>) -> Self {
        self.history = Some(history);
        self
    }

    /// The loaded database.
    pub fn db(&self) -> &Arc<TpccDb> {
        &self.db
    }

    /// Runs one phase for `duration`.
    pub fn run_phase(&self, kind: PhaseKind, duration: Duration, seed: u64) -> PhaseResult {
        let started = Instant::now();
        let committed = Counter::new();
        let olap_done = Counter::new();
        let olap_admitted = Counter::new();

        // Boot the worker ACs.
        let n_acs = self.cfg.acs as usize;
        let mut senders: Vec<InboxSender<Event>> = Vec::with_capacity(n_acs);
        let mut handles = Vec::with_capacity(n_acs);
        for i in 0..n_acs {
            let (tx, handle) = AnyComponent::spawn_with_ctrl(
                AcId(i as u32),
                self.db.clone(),
                self.history.clone(),
                Arc::new(Counter::new()),
                self.cfg.batch.controller(),
            );
            senders.push(tx);
            handles.push(handle);
        }
        // HTAP: one extra AC acting as the OLAP worker — analytics are
        // *routed away* from the transaction ACs (§4: "route data
        // intensive analytical queries to additional compute resources").
        let olap = if kind.has_olap() {
            let (tx, handle) = AnyComponent::spawn(
                AcId(n_acs as u32),
                self.db.clone(),
                None,
                Arc::new(Counter::new()),
            );
            Some((tx, handle))
        } else {
            None
        };

        let sequencer = Sequencer::new(self.db.cfg.warehouses as usize);
        let plan = DispatchPlan::new(self.cfg.strategy);
        let swap = SwapSync::new(self.cfg.drivers as usize);
        // The OLAP admission knob starts from the config scaled by the
        // phase's stream count; the morph controller re-targets it live.
        let olap_window = AtomicUsize::new(self.cfg.olap_window * kind.olap_streams().max(1));

        let shared = PhaseShared {
            senders: &senders,
            committed: &committed,
            sequencer: &sequencer,
            plan: &plan,
            swap: &swap,
            olap_window: &olap_window,
            olap_done: &olap_done,
            olap_admitted: &olap_admitted,
        };
        std::thread::scope(|scope| {
            let shared = &shared;
            for d in 0..self.cfg.drivers {
                let seed = seed ^ (d as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                // Driver 0 hosts the controller; the others only follow
                // the plan it installs.
                let morph = if d == 0 { self.cfg.morph } else { None }.map(|mc| {
                    MorphController::new(
                        self.cfg.strategy,
                        MorphConfig {
                            acs: self.cfg.acs,
                            ..mc
                        },
                    )
                });
                scope.spawn(move || {
                    self.drive(kind, duration, seed, shared, morph);
                });
            }
            if let Some((olap_tx, _)) = &olap {
                scope.spawn(move || {
                    let deadline = Instant::now() + duration;
                    let (done_tx, done_rx) = unbounded();
                    let mut qid = 0u64;
                    let mut inflight = 0usize;
                    let absorb = |batch: DoneBatch, inflight: &mut usize| {
                        for c in batch.0 {
                            if matches!(c, Completion::Query { .. }) {
                                shared.olap_done.incr();
                                *inflight -= 1;
                            }
                        }
                    };
                    while Instant::now() < deadline {
                        // Keep a window of concurrent Q3 requests with
                        // rotating date windows in flight; whatever slice
                        // of them lands in one AC drain chunk executes as
                        // a shared pipeline. One burst send per refill —
                        // the grouping itself happens at the AC. The
                        // target is re-read every refill: it moves under
                        // the morph controller.
                        let target = shared.olap_window.load(Ordering::Relaxed).max(1);
                        if inflight < target {
                            shared.olap_admitted.add((target - inflight) as u64);
                            olap_tx.send_many((inflight..target).map(|_| {
                                let e = Event::QueryQ3 {
                                    query: QueryId(qid),
                                    spec: windowed_q3_spec(qid),
                                    done: done_tx.clone(),
                                };
                                qid += 1;
                                e
                            }));
                            inflight = target;
                        }
                        // Query completions arrive on the batched done
                        // channel like transaction notices: one DoneBatch
                        // per admission window per chunk.
                        match done_rx.recv() {
                            Ok(batch) => absorb(batch, &mut inflight),
                            Err(_) => return,
                        }
                    }
                    // Wait out the window still in flight (the AC answers
                    // every admitted query before it shuts down).
                    while inflight > 0 {
                        match done_rx.recv() {
                            Ok(batch) => absorb(batch, &mut inflight),
                            Err(_) => break,
                        }
                    }
                });
            }
        });

        // Drivers are done and have drained their in-flight work; stop ACs.
        for tx in &senders {
            tx.send(Event::Shutdown);
        }
        if let Some((tx, handle)) = olap {
            tx.send(Event::Shutdown);
            drop(tx);
            handle.join().expect("olap AC");
        }
        drop(senders);
        for handle in handles {
            handle.join().expect("AC thread");
        }

        PhaseResult {
            committed: committed.get(),
            olap_queries: olap_done.get(),
            elapsed: started.elapsed(),
            strategies: plan.history(),
            switches: plan.switches(),
        }
    }

    /// Runs a schedule, one result per phase.
    pub fn run_schedule(
        &self,
        schedule: &PhaseSchedule,
        phase_duration: Duration,
        seed: u64,
    ) -> Vec<(Phase, PhaseResult)> {
        schedule
            .phases()
            .iter()
            .map(|phase| {
                (
                    *phase,
                    self.run_phase(phase.kind, phase_duration, seed ^ phase.index as u64),
                )
            })
            .collect()
    }

    /// The unified driver loop: consult the plan at every transaction-
    /// window boundary, pump one admission window under the strategy it
    /// names, and (driver 0 only) feed the morph controller.
    fn drive(
        &self,
        kind: PhaseKind,
        duration: Duration,
        seed: u64,
        sh: &PhaseShared<'_>,
        mut morph: Option<MorphController>,
    ) {
        let _retire = Retire(sh.swap);
        let (done_tx, done_rx) = unbounded();
        let mut st = DriverState {
            mix: MixGen::new(
                self.db.cfg.clone(),
                kind.warehouse_dist(self.db.cfg.warehouses),
                self.cfg.payment_fraction,
                seed,
            ),
            pay: PaymentGen::new(
                self.db.cfg.clone(),
                kind.warehouse_dist(self.db.cfg.warehouses),
                seed,
            ),
            done_tx,
            done_rx,
            inflight: 0,
            ready: Vec::new(),
            ctrl: self.cfg.batch.controller(),
            batcher: DispatchBatcher::new(sh.senders.len(), self.cfg.batch),
            pending: (0..sh.senders.len()).map(|_| Vec::new()).collect(),
            admitted: vec![0; sh.senders.len()],
            depth: (0, 0, 0),
        };
        let started = Instant::now();
        let deadline = started + duration;
        let (mut epoch, mut strategy) = sh.plan.current();
        // Controller baselines for per-window counter deltas.
        let mut seen = (0u64, 0u64, 0u64);

        while Instant::now() < deadline {
            // Window boundary: adopt a newer plan if one was installed.
            // In-flight transactions admitted under the old plan drain
            // first (their completions count normally), then all drivers
            // rendezvous so decomposed and whole-transaction windows
            // never interleave on the same data.
            let (e, s) = sh.plan.current();
            if e != epoch {
                self.drain_completions(&st.done_rx, &mut st.inflight, sh.committed);
                sh.swap.arrive(e);
                (epoch, strategy) = (e, s);
            }
            // One admission window under the current plan.
            let alive = match strategy {
                Strategy::SharedNothing => self.pump_shared_nothing(&mut st, sh),
                Strategy::StreamingCc | Strategy::PreciseIntra => {
                    self.pump_pipelined(strategy, &mut st, sh)
                }
                Strategy::StaticIntra => self.pump_static(&mut st, sh),
            };
            if !alive {
                return;
            }
            // Driver 0: fold this window's telemetry into a LoadSnapshot
            // and let the controller re-target plan and OLAP window.
            if let Some(m) = morph.as_mut() {
                let now = (
                    sh.committed.get(),
                    sh.olap_done.get(),
                    sh.olap_admitted.get(),
                );
                let snap = LoadSnapshot {
                    oltp_committed: now.0 - seen.0,
                    olap_completed: now.1 - seen.1,
                    olap_admitted: now.2 - seen.2,
                    windows: 1,
                    depth_samples: st.depth.0,
                    depth_hot: st.depth.1,
                    depth_total: st.depth.2,
                };
                seen = now;
                st.depth = (0, 0, 0);
                let decision = m.observe(started.elapsed(), &snap);
                sh.olap_window
                    .store(decision.olap_window, Ordering::Relaxed);
                if let Some(next) = decision.switch_to {
                    sh.plan.install(next);
                }
            }
        }
        self.drain_completions(&st.done_rx, &mut st.inflight, sh.committed);
    }

    /// One shared-nothing admission window: whole transactions routed to
    /// the AC owning the home warehouse. Returns `false` if the done
    /// channel disconnected.
    fn pump_shared_nothing(&self, st: &mut DriverState, sh: &PhaseShared<'_>) -> bool {
        let n_acs = sh.senders.len() as i64;
        // Deepest destination backlog is the batch-size signal: ACs
        // that are behind justify bigger groups, idle ACs do not.
        st.ctrl
            .observe(sh.senders.iter().map(InboxSender::len).max().unwrap_or(0));
        while st.inflight < self.cfg.window {
            let w = st.mix.next_warehouse();
            let req = st.mix.next_for_warehouse(w);
            let ac = ((w - 1).rem_euclid(n_acs)) as usize;
            st.admitted[ac] += 1;
            st.pending[ac].push(Event::ExecuteTxn {
                txn: self.ids.next(),
                req,
                done: st.done_tx.clone(),
            });
            if st.pending[ac].len() >= st.ctrl.current() {
                sh.senders[ac].send_many(st.pending[ac].drain(..));
            }
            st.inflight += 1;
        }
        // Everything buffered must be visible before we wait, or the
        // window never drains.
        for (ac, events) in st.pending.iter_mut().enumerate() {
            if !events.is_empty() {
                sh.senders[ac].send_many(events.drain(..));
            }
        }
        st.sample_depths(sh.senders);
        let waited = Instant::now();
        let alive =
            self.wait_completions(&st.done_rx, &mut st.ready, &mut st.inflight, sh.committed);
        // The drain wait is the driver's observable bound on queueing
        // delay this window — what the SLO batch mode steers against.
        st.ctrl.observe_delay(waited.elapsed());
        alive
    }

    /// One pipelined admission window (streaming CC / precise intra-txn):
    /// all op groups dispatched at once; stage ACs pipeline in stamp
    /// order. Returns `false` if the done channel disconnected.
    fn pump_pipelined(
        &self,
        strategy: Strategy,
        st: &mut DriverState,
        sh: &PhaseShared<'_>,
    ) -> bool {
        // Feed the dispatch batcher the deepest stage backlog once per
        // window: group size follows load.
        st.batcher
            .observe(sh.senders.iter().map(InboxSender::len).max().unwrap_or(0));
        while st.inflight < self.cfg.window {
            let p = st.pay.next();
            let domain = (p.w_id - 1) as u32;
            let groups: Vec<(u32, Vec<crate::event::TxnOp>)> = match strategy {
                Strategy::StreamingCc => payment_stage_groups(&p),
                Strategy::PreciseIntra => payment_precise_groups(&p).to_vec(),
                _ => unreachable!("pump_pipelined handles pipelined strategies"),
            };
            let txn = self.ids.next();
            st.admitted[(domain as i64).rem_euclid(sh.senders.len() as i64) as usize] += 1;
            // Stamp-then-send must not be interleaved with anything
            // blocking: gate density depends on every stamp's events
            // reaching the stage ACs. Buffering in the batcher is safe
            // — it never blocks and is fully flushed before we wait.
            let seq = sh.sequencer.stamp(domain as usize);
            let tracker = TxnTracker::new(txn, groups.len() as u32, st.done_tx.clone());
            for (stage, ops) in groups {
                st.batcher.push(
                    stage_ac(stage, sh.senders.len()),
                    OpEnvelope {
                        txn,
                        stage,
                        domain,
                        seq,
                        ops,
                        tracker: tracker.clone(),
                    },
                    sh.senders,
                );
            }
            st.inflight += 1;
        }
        st.batcher.flush_all(sh.senders);
        st.sample_depths(sh.senders);
        let waited = Instant::now();
        let alive =
            self.wait_completions(&st.done_rx, &mut st.ready, &mut st.inflight, sh.committed);
        st.batcher.observe_delay(waited.elapsed());
        alive
    }

    /// One naive static intra-txn transaction: one round trip per op
    /// group — the overhead the paper shows dominating in Figure 5.
    /// Synchronous, so nothing is ever in flight across a plan swap.
    fn pump_static(&self, st: &mut DriverState, sh: &PhaseShared<'_>) -> bool {
        let p = st.pay.next();
        let domain = (p.w_id - 1) as u32;
        let txn = self.ids.next();
        st.admitted[(domain as i64).rem_euclid(sh.senders.len() as i64) as usize] += 1;
        let seq = sh.sequencer.stamp(domain as usize);
        let mut ok = true;
        for (stage, ops) in payment_stage_groups(&p) {
            let tracker = TxnTracker::new(txn, 1, st.done_tx.clone());
            let ac = stage_ac(stage, sh.senders.len());
            sh.senders[ac].send(Event::OpGroup(OpEnvelope {
                txn,
                stage,
                domain,
                seq,
                ops,
                tracker,
            }));
            // One round trip per op group (the naive strategy being
            // measured): the batch protocol degenerates to singleton
            // DoneBatches here.
            match st.done_rx.recv() {
                Ok(batch) => {
                    ok &= batch.0.iter().all(|c| match c {
                        Completion::Txn(done) => done.ok,
                        Completion::Query { .. } => true,
                    })
                }
                Err(_) => return false,
            }
        }
        if ok {
            sh.committed.incr();
        }
        st.sample_depths(sh.senders);
        true
    }

    /// Blocks briefly for completions, then bulk-drains whatever else is
    /// queued. Returns `false` if the channel disconnected.
    fn wait_completions(
        &self,
        done_rx: &Receiver<DoneBatch>,
        ready: &mut Vec<DoneBatch>,
        inflight: &mut usize,
        committed: &Counter,
    ) -> bool {
        match done_rx.recv_timeout(Duration::from_millis(1)) {
            Ok(batch) => absorb_completions(batch, inflight, committed),
            Err(RecvTimeoutError::Timeout) => return true,
            Err(RecvTimeoutError::Disconnected) => return false,
        }
        // The ACs batch completions per drained chunk; mirror that here
        // with one bulk channel crossing per group of DoneBatches instead
        // of one try_recv handshake per notice.
        loop {
            match done_rx.try_recv_many(ready, COMPLETION_CHUNK) {
                Ok(_) => {
                    for batch in ready.drain(..) {
                        absorb_completions(batch, inflight, committed);
                    }
                }
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// Final drain after the deadline or before a plan swap: waits out
    /// every in-flight txn.
    fn drain_completions(
        &self,
        done_rx: &Receiver<DoneBatch>,
        inflight: &mut usize,
        committed: &Counter,
    ) {
        while *inflight > 0 {
            match done_rx.recv() {
                Ok(batch) => absorb_completions(batch, inflight, committed),
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anydb_workload::tpcc::cols::warehouse;
    use anydb_workload::tpcc::TpccConfig;

    fn engine(strategy: Strategy) -> AnyDbEngine {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 61).unwrap());
        AnyDbEngine::new(
            db,
            EngineConfig {
                strategy,
                acs: 2,
                ..Default::default()
            },
        )
    }

    fn run_short(strategy: Strategy, kind: PhaseKind) -> (AnyDbEngine, PhaseResult) {
        let e = engine(strategy);
        let r = e.run_phase(kind, Duration::from_millis(100), 1);
        (e, r)
    }

    /// An eager morph config for short test phases: switch on the first
    /// qualified window, hold 5ms after each switch.
    fn eager_morph() -> MorphConfig {
        MorphConfig {
            dwell: Duration::from_millis(5),
            min_backlog: 8,
            improvement: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn shared_nothing_commits() {
        let (_, r) = run_short(Strategy::SharedNothing, PhaseKind::OltpPartitionable);
        assert!(r.committed > 100, "committed {}", r.committed);
        assert_eq!(r.olap_queries, 0);
    }

    #[test]
    fn streaming_cc_commits_under_skew() {
        let (_, r) = run_short(Strategy::StreamingCc, PhaseKind::OltpSkewed);
        assert!(r.committed > 100, "committed {}", r.committed);
    }

    #[test]
    fn precise_intra_commits_under_skew() {
        let (_, r) = run_short(Strategy::PreciseIntra, PhaseKind::OltpSkewed);
        assert!(r.committed > 100, "committed {}", r.committed);
    }

    #[test]
    fn static_intra_commits_under_skew() {
        let (_, r) = run_short(Strategy::StaticIntra, PhaseKind::OltpSkewed);
        assert!(r.committed > 50, "committed {}", r.committed);
    }

    #[test]
    fn htap_phase_serves_olap_on_separate_acs() {
        let (_, r) = run_short(Strategy::SharedNothing, PhaseKind::HtapSkewed);
        assert!(r.olap_queries > 0);
        assert!(r.committed > 0);
    }

    #[test]
    fn static_run_records_its_single_strategy() {
        let (_, r) = run_short(Strategy::PreciseIntra, PhaseKind::OltpSkewed);
        assert_eq!(r.strategies, vec![Strategy::PreciseIntra]);
        assert_eq!(r.switches, 0);
    }

    #[test]
    fn olap_heavy_phase_scales_admission() {
        let (_, r) = run_short(Strategy::SharedNothing, PhaseKind::OlapHeavy);
        assert!(r.olap_queries > 0, "olap {}", r.olap_queries);
        assert!(r.committed > 0);
    }

    #[test]
    fn morphing_escapes_shared_nothing_under_skew() {
        // Everything lands on warehouse 1's AC: the attributed hot share
        // is ~1.0, so the controller must decompose — and since the
        // admission mix stays skewed, it must not flap back.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 70).unwrap());
        let e = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::SharedNothing,
                acs: 2,
                window: 256,
                morph: Some(eager_morph()),
                ..Default::default()
            },
        );
        let r = e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(200), 21);
        assert!(r.switches >= 1, "no switch: {:?}", r.strategies);
        assert_eq!(r.strategies[0], Strategy::SharedNothing);
        assert_eq!(
            *r.strategies.last().unwrap(),
            Strategy::StreamingCc,
            "{:?}",
            r.strategies
        );
        assert!(r.committed > 100, "committed {}", r.committed);
    }

    #[test]
    fn morphing_reverts_to_shared_nothing_when_load_spreads() {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 71).unwrap());
        let e = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::StreamingCc,
                acs: 2,
                window: 256,
                morph: Some(eager_morph()),
                ..Default::default()
            },
        );
        let r = e.run_phase(PhaseKind::OltpPartitionable, Duration::from_millis(200), 22);
        assert!(r.switches >= 1, "no switch: {:?}", r.strategies);
        assert_eq!(
            *r.strategies.last().unwrap(),
            Strategy::SharedNothing,
            "{:?}",
            r.strategies
        );
        assert!(r.committed > 100, "committed {}", r.committed);
    }

    #[test]
    fn morphing_run_is_serializable_across_live_swaps() {
        // Two drivers crossing at least one plan swap: the drain + swap
        // barrier must keep whole-transaction and decomposed execution
        // from ever interleaving on the same warehouses.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 72).unwrap());
        let hist = Arc::new(History::new());
        let e = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::SharedNothing,
                acs: 2,
                drivers: 2,
                window: 128,
                morph: Some(eager_morph()),
                ..Default::default()
            },
        )
        .with_history(hist.clone());
        let r = e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(250), 23);
        assert!(r.switches >= 1, "no swap exercised: {:?}", r.strategies);
        assert!(!hist.is_empty());
        assert!(
            hist.is_serializable(),
            "live morphing produced a non-serializable history"
        );
    }

    #[test]
    fn money_invariant_holds_after_streaming_cc() {
        // Σ(W_YTD deltas) must equal the number of committed payments
        // times their amounts; with the shared counter we check the
        // weaker but sharp invariant: total YTD delta == Σ amounts of
        // committed txns. Since amounts vary, check conservation:
        // warehouse + district YTD deltas must match exactly (every
        // payment adds the same amount to both).
        let e = engine(Strategy::StreamingCc);
        e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(150), 3);
        let db = e.db();
        let mut w_delta = 0.0;
        for w in 1..=db.cfg.warehouses as i64 {
            let ytd = db
                .warehouse
                .read(db.warehouse_rid(w).unwrap())
                .unwrap()
                .0
                .get(warehouse::W_YTD)
                .as_float()
                .unwrap();
            w_delta += ytd - 300_000.0;
        }
        let mut d_delta = 0.0;
        for w in 1..=db.cfg.warehouses as i64 {
            for d in 1..=db.cfg.districts_per_warehouse as i64 {
                let ytd = db
                    .district
                    .read(db.district_rid(w, d).unwrap())
                    .unwrap()
                    .0
                    .get(anydb_workload::tpcc::cols::district::D_YTD)
                    .as_float()
                    .unwrap();
                d_delta += ytd - 30_000.0;
            }
        }
        // Relative tolerance: fast runs push the sums past 1e8, where a
        // fixed 1e-6 is below f64 accumulation noise.
        let tol = (w_delta.abs() * 1e-12).max(1e-6);
        assert!(
            (w_delta - d_delta).abs() < tol,
            "warehouse delta {w_delta} != district delta {d_delta}"
        );
        assert!(w_delta > 0.0);
    }

    #[test]
    fn money_invariant_holds_across_live_morphing() {
        // Same conservation law, but with the plan swapping mid-phase:
        // a transaction torn across the swap would break it.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 73).unwrap());
        let e = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::SharedNothing,
                acs: 2,
                window: 256,
                morph: Some(eager_morph()),
                ..Default::default()
            },
        );
        let r = e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(200), 24);
        assert!(r.switches >= 1);
        let db = e.db();
        let mut w_delta = 0.0;
        for w in 1..=db.cfg.warehouses as i64 {
            let ytd = db
                .warehouse
                .read(db.warehouse_rid(w).unwrap())
                .unwrap()
                .0
                .get(warehouse::W_YTD)
                .as_float()
                .unwrap();
            w_delta += ytd - 300_000.0;
        }
        let mut d_delta = 0.0;
        for w in 1..=db.cfg.warehouses as i64 {
            for d in 1..=db.cfg.districts_per_warehouse as i64 {
                let ytd = db
                    .district
                    .read(db.district_rid(w, d).unwrap())
                    .unwrap()
                    .0
                    .get(anydb_workload::tpcc::cols::district::D_YTD)
                    .as_float()
                    .unwrap();
                d_delta += ytd - 30_000.0;
            }
        }
        let tol = (w_delta.abs() * 1e-12).max(1e-6);
        assert!(
            (w_delta - d_delta).abs() < tol,
            "warehouse delta {w_delta} != district delta {d_delta}"
        );
        assert!(w_delta > 0.0);
    }

    #[test]
    fn streaming_cc_history_is_serializable() {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 62).unwrap());
        let hist = Arc::new(History::new());
        let e = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::StreamingCc,
                acs: 2,
                drivers: 2,
                ..Default::default()
            },
        )
        .with_history(hist.clone());
        e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(150), 5);
        assert!(!hist.is_empty());
        assert!(
            hist.is_serializable(),
            "streaming CC produced a non-serializable history"
        );
    }

    #[test]
    fn precise_intra_history_is_serializable() {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 63).unwrap());
        let hist = Arc::new(History::new());
        let e = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::PreciseIntra,
                acs: 2,
                drivers: 2,
                ..Default::default()
            },
        )
        .with_history(hist.clone());
        e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(150), 6);
        assert!(hist.is_serializable());
    }

    #[test]
    fn unbatched_config_still_commits() {
        // batch = 1 is the pre-batching per-event path; it must stay
        // correct because it is the latency end of the tunable.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 64).unwrap());
        let e = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::StreamingCc,
                acs: 2,
                batch: BatchMode::Static(1),
                ..Default::default()
            },
        );
        let r = e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(100), 11);
        assert!(r.committed > 100, "committed {}", r.committed);
    }

    #[test]
    fn batched_streaming_cc_history_is_serializable() {
        // Large batches + several drivers: grouping must not leak events
        // past their stamps.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 65).unwrap());
        let hist = Arc::new(History::new());
        let e = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::StreamingCc,
                acs: 2,
                drivers: 2,
                batch: BatchMode::Static(256),
                ..Default::default()
            },
        )
        .with_history(hist.clone());
        e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(150), 12);
        assert!(!hist.is_empty());
        assert!(hist.is_serializable());
    }

    #[test]
    fn adaptive_batching_commits_and_is_serializable() {
        // The default mode: batch sizes move with backlog during the
        // run. Correctness must not depend on where the controller sits.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 66).unwrap());
        let hist = Arc::new(History::new());
        let e = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::StreamingCc,
                acs: 2,
                drivers: 2,
                batch: BatchMode::Adaptive { min: 1, max: 256 },
                ..Default::default()
            },
        )
        .with_history(hist.clone());
        let r = e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(150), 13);
        assert!(r.committed > 100, "committed {}", r.committed);
        assert!(!hist.is_empty());
        assert!(hist.is_serializable());
    }

    #[test]
    fn slo_batching_commits_and_is_serializable() {
        // The SLO mode steers batch size against the measured per-window
        // drain wait; wherever it lands, execution must stay correct.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 67).unwrap());
        let hist = Arc::new(History::new());
        let e = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::StreamingCc,
                acs: 2,
                drivers: 2,
                batch: BatchMode::Slo {
                    budget: Duration::from_micros(500),
                    max: 256,
                },
                ..Default::default()
            },
        )
        .with_history(hist.clone());
        let r = e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(150), 14);
        assert!(r.committed > 100, "committed {}", r.committed);
        assert!(!hist.is_empty());
        assert!(hist.is_serializable());
    }

    #[test]
    fn schedule_runs_all_phases() {
        let e = engine(Strategy::SharedNothing);
        let results = e.run_schedule(&PhaseSchedule::figure5(), Duration::from_millis(25), 9);
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|(_, r)| r.committed > 0));
    }
}
