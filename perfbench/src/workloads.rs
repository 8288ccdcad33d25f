//! The three workloads. Each episode builds one simulated world on the
//! calling thread, runs a fixed script of checkpoint generations and
//! restarts, and records host timings, virtual outputs and the program's
//! counters. The seed only splits a fixed total of virtual gap time among
//! the `run_for` calls after generation 1, so every seed simulates the
//! same amount of traffic.

use crate::trace::{Span, Tracer};
use apps::memhog::IdleHog;
use apps::nas::{nas_factory, NasKernel};
use dmtcp::coord::{coord_shared, stage};
use dmtcp::session::run_for;
use dmtcp::{RestartPlan, Session};
use dmtcp_bench::{ckpt_seconds, cluster_world, desktop_world, options, EV};
use oskit::mem::Content;
use oskit::world::{NodeId, OsSim, World};
use simkit::{DetRng, Nanos};
use simmpi::launch::{mpirun, Flavor, Launcher, MpiJob};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NAS/IS under OpenMPI, 8 nodes × 4 ranks, raw images to local disk:
    /// host time goes to simkit dispatch, the oskit network and simmpi.
    IsTraffic,
    /// RunCMS on the desktop world, gzip on, no store: host time goes to
    /// synthetic fill generation and the szip compressor.
    RuncmsGzip,
    /// 4 nodes × 2 IdleHogs with 32 MiB of real memory each through
    /// ckptstore: the store's write and read paths side by side.
    StoreCycle,
}

pub const ALL: [Workload; 3] = [
    Workload::IsTraffic,
    Workload::RuncmsGzip,
    Workload::StoreCycle,
];

const IS_NODES: usize = 8;
const IS_PPN: usize = 4;
const IS_GENS: usize = 6;
const RUNCMS_GENS: usize = 2;
/// Restarts at the end of the `is-traffic` and `runcms-gzip` scripts.
const RESTARTS: usize = 3;
const STORE_NODES: usize = 4;
const STORE_PPN: usize = 2;
const STORE_HOG_MB: u64 = 32;

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IsTraffic => "is-traffic",
            Workload::RuncmsGzip => "runcms-gzip",
            Workload::StoreCycle => "store-cycle",
        }
    }

    /// Checkpoints in the script.
    fn checkpoints(self) -> usize {
        match self {
            Workload::IsTraffic => IS_GENS,
            Workload::RuncmsGzip => RUNCMS_GENS,
            // One full, then one incremental.
            Workload::StoreCycle => 2,
        }
    }

    /// The fixed gap before generation 1, and the virtual time the seed
    /// splits among the other gaps: before each later checkpoint and
    /// before the kill.
    fn gap_plan(self) -> (Nanos, Nanos) {
        match self {
            Workload::IsTraffic => (Nanos::from_millis(40), Nanos::from_millis(280)),
            Workload::RuncmsGzip => (Nanos::from_secs(1), Nanos::from_secs(2)),
            Workload::StoreCycle => (Nanos::from_millis(100), Nanos::from_millis(200)),
        }
    }

    /// The generation the restarts restore; `None` for the newest.
    fn restore_gen(self) -> Option<u64> {
        match self {
            // Generation 1 follows the fixed warm-up and first gap, so its
            // in-flight MPI data, and the host cost of restoring it, are
            // the same under every seed. Restoring a later generation
            // cost twice as much host time on some seeds as on others.
            Workload::IsTraffic => Some(1),
            // store-cycle restores its incremental image, so the restart
            // resolves alias extents.
            Workload::RuncmsGzip | Workload::StoreCycle => None,
        }
    }

    /// RunCMS set-up takes 1–2 ms, and host speed on a shared machine
    /// drifts over seconds, so each untraced RunCMS episode also runs
    /// batches of set-ups on their own: `(batches, set-ups per batch)`.
    /// Each batch mean is one `setup_s` sample, and the samples are spread
    /// over the whole run. Heavier set-ups give one sample per episode.
    fn setup_batches(self) -> Option<(usize, usize)> {
        match self {
            Workload::RuncmsGzip => Some((3, 8)),
            _ => None,
        }
    }
}

/// The gaps of the script in order: one before each checkpoint, then the
/// one before the kill. The seed's only effect is how the fixed total
/// after generation 1 is divided among the later gaps (each share drawn
/// from 1..=4 units).
pub fn gap_schedule(wl: Workload, seed: u64) -> Vec<Nanos> {
    let ((first, total), n) = (wl.gap_plan(), wl.checkpoints());
    let mut rng = DetRng::seed_from_u64(seed ^ 0x6761_7073);
    let weights: Vec<u64> = (0..n).map(|_| rng.range(1, 5)).collect();
    let sum: u64 = weights.iter().sum();
    let mut gaps: Vec<Nanos> = weights.iter().map(|wt| Nanos(total.0 / sum * wt)).collect();
    let used: u64 = gaps.iter().map(|g| g.0).sum();
    gaps[n - 1] = Nanos(gaps[n - 1].0 + total.0 - used);
    gaps.insert(0, first);
    gaps
}

/// Virtual-clock outputs of one episode, per completed operation.
#[derive(Debug, Clone, Default)]
pub struct Virt {
    pub ckpt_s: Vec<f64>,
    pub pause_s: Vec<f64>,
    pub restart_s: Vec<f64>,
    /// Logical image bytes written per generation (`mtcp.image.bytes`).
    pub image_bytes: Vec<u64>,
    /// Incremental images per generation (`mtcp.incr.images`).
    pub incr_images: Vec<u64>,
}

/// Everything one episode measured.
#[derive(Default)]
pub struct Episode {
    pub setup_s: f64,
    /// `setup_s` samples: the episode's own set-up, or batch means for
    /// workloads with cheap set-ups.
    pub setup_samples: Vec<f64>,
    /// Host seconds of the post-set-up script, without the benchmark's own
    /// correctness checks.
    pub wall_s: f64,
    pub ckpt_s: Vec<f64>,
    pub restart_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations (wrong outputs, not failed operations).
    pub errors: Vec<String>,
    pub virt: Virt,
    /// Hash of the virtual outputs and every program counter.
    pub digest: u64,
    pub spans: Vec<Span>,
    /// The world as the script left it, for the traced run's probes.
    pub world: Option<(World, Vec<(String, String)>)>,
    pub events: u64,
    /// The process's peak resident memory as the episode ends. Only the
    /// first episode's value is reported: later episodes run on a heap
    /// the earlier ones fragmented, and how many run depends on speed.
    pub peak_rss_mb: f64,
}

struct Ctx {
    w: World,
    sim: OsSim,
    s: Session,
    tr: Tracer,
    ep: Episode,
    /// Host time spent in correctness checks, excluded from `wall_s`.
    check_s: f64,
}

fn build(
    tr: &mut Tracer,
    world: (World, OsSim),
    store: bool,
    opts: dmtcp::Options,
) -> (World, OsSim, Session) {
    tr.begin("oskit.world_build");
    let (mut w, mut sim) = world;
    if store {
        ckptstore::install(&mut w, ckptstore::Config::default());
    }
    let s = Session::start(&mut w, &mut sim, opts);
    tr.end(sim.events_fired());
    (w, sim, s)
}

impl Ctx {
    fn new(wl: Workload, traced: bool) -> Ctx {
        let mut tr = Tracer::new(traced);
        let (mut w, mut sim, s) = match wl {
            Workload::IsTraffic => build(
                &mut tr,
                cluster_world(IS_NODES),
                false,
                options(false, false, true),
            ),
            Workload::RuncmsGzip => {
                build(&mut tr, desktop_world(), false, options(true, false, false))
            }
            Workload::StoreCycle => build(
                &mut tr,
                cluster_world(STORE_NODES),
                true,
                options(true, false, true),
            ),
        };
        let ev0 = sim.events_fired();
        tr.begin("simmpi.launch");
        let warmup = match wl {
            Workload::IsTraffic => {
                let job = MpiJob {
                    flavor: Flavor::OpenMpi,
                    nodes: (0..IS_NODES as u32).map(NodeId).collect(),
                    procs_per_node: IS_PPN,
                    base_port: 30_000,
                };
                mpirun(
                    &mut w,
                    &mut sim,
                    Launcher::Dmtcp(&s),
                    &job,
                    nas_factory(NasKernel::Is, 1_000_000, 1024),
                );
                // The job is wired up and exchanging keys well before
                // this; fig4 waits 400 ms, but a shorter episode lets a
                // run take the median of more of them.
                Nanos::from_millis(200)
            }
            Workload::RuncmsGzip => {
                s.launch(
                    &mut w,
                    &mut sim,
                    NodeId(0),
                    "runCMS",
                    Box::new(apps::runcms::RunCms::new()),
                );
                // Library loading and the conditions database.
                Nanos::from_secs(60)
            }
            Workload::StoreCycle => {
                for n in 0..STORE_NODES as u32 {
                    for _ in 0..STORE_PPN {
                        s.launch(
                            &mut w,
                            &mut sim,
                            NodeId(n),
                            "idlehog",
                            Box::new(IdleHog::new(STORE_HOG_MB)),
                        );
                    }
                }
                // Every hog materialises its ballast on its first step.
                Nanos::from_millis(200)
            }
        };
        tr.end(sim.events_fired() - ev0);
        let ev0 = sim.events_fired();
        tr.begin("apps.warmup");
        run_for(&mut w, &mut sim, warmup);
        tr.end(sim.events_fired() - ev0);
        Ctx {
            w,
            sim,
            s,
            tr,
            ep: Episode::default(),
            check_s: 0.0,
        }
    }

    fn gap(&mut self, d: Nanos) {
        let ev0 = self.sim.events_fired();
        self.tr.begin("apps.gap");
        run_for(&mut self.w, &mut self.sim, d);
        self.tr.end(self.sim.events_fired() - ev0);
    }

    fn checkpoint(&mut self) {
        self.ep.attempted += 1;
        let m = &self.w.obs.metrics;
        let (bytes0, incr0) = (
            m.counter_total("mtcp.image.bytes"),
            m.counter_total("mtcp.incr.images"),
        );
        let ev0 = self.sim.events_fired();
        let t = Instant::now();
        self.tr.begin("core.ckpt_call");
        let r = self.s.checkpoint_and_wait(&mut self.w, &mut self.sim, EV);
        self.tr.end(self.sim.events_fired() - ev0);
        self.ep.ckpt_s.push(t.elapsed().as_secs_f64());
        match r {
            Ok(g) => {
                let m = &self.w.obs.metrics;
                let v = &mut self.ep.virt;
                v.ckpt_s.push(ckpt_seconds(&g));
                v.pause_s
                    .push(g.total_pause().map_or(0.0, |p| p.as_secs_f64()));
                v.image_bytes
                    .push(m.counter_total("mtcp.image.bytes") - bytes0);
                v.incr_images
                    .push(m.counter_total("mtcp.incr.images") - incr0);
            }
            Err(e) => {
                eprintln!("# checkpoint failed: {e}");
                self.ep.failed += 1;
            }
        }
    }

    /// Kill the computation and restart it from generation `gen`, or
    /// from the newest. Returns false when the restart could not be
    /// carried out.
    fn restart(&mut self, gen: Option<u64>) -> bool {
        self.ep.attempted += 1;
        let Some(gen) = gen.or_else(|| Session::last_gen_stat(&mut self.w).map(|g| g.gen)) else {
            self.ep.failed += 1;
            return false;
        };
        let ev0 = self.sim.events_fired();
        let t = Instant::now();
        self.tr.begin("core.restart");
        self.tr.begin("core.kill");
        self.s.kill_computation(&mut self.w, &mut self.sim);
        self.tr.end(self.sim.events_fired() - ev0);
        let ev1 = self.sim.events_fired();
        self.tr.begin("core.restart_call");
        let done0 = restarts_done(&mut self.w, gen);
        let r = RestartPlan::from_generation(&self.w, self.s.opts.coord_port, gen)
            .and_then(|p| p.execute(&self.s, &mut self.w, &mut self.sim))
            .map_err(|e| e.to_string())
            .and_then(|_| {
                // `Session::wait_restart_done` returns at once when an
                // earlier restart of the same generation completed, so
                // wait for this restart's own record.
                while restarts_done(&mut self.w, gen) == done0 {
                    if !self.sim.step(&mut self.w) || self.sim.events_fired() - ev1 > EV {
                        return Err(format!("restart of gen {gen} did not complete"));
                    }
                }
                Ok(())
            });
        self.tr.end(self.sim.events_fired() - ev1);
        self.tr.end(self.sim.events_fired() - ev0);
        self.ep.restart_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = r {
            eprintln!("# restart failed: {e}");
            self.ep.failed += 1;
            return false;
        }
        let g = coord_shared(&mut self.w)
            .gen_stats
            .iter()
            .rev()
            .find(|g| g.gen == gen && g.releases.contains_key(&stage::RESTART_REFILLED))
            .cloned();
        match g {
            Some(g) => self
                .ep
                .virt
                .restart_s
                .push((g.releases[&stage::RESTART_REFILLED] - g.requested_at).as_secs_f64()),
            None => self
                .ep
                .errors
                .push(format!("restart of gen {gen} left no stats")),
        }
        true
    }

    /// `szip::crc32` of every real region of every IdleHog, keyed by the
    /// process's virtual pid and the region's name.
    fn hog_crcs(&mut self) -> BTreeMap<(u32, String), u32> {
        let t = Instant::now();
        self.tr.begin("bench.check");
        let mut out = BTreeMap::new();
        for p in self.w.procs.values() {
            if !p.alive() || p.cmd != "idlehog" {
                continue;
            }
            let vpid = p.virt_pid.unwrap_or(p.pid.0);
            for (_, r) in p.mem.iter() {
                if let Content::Real(b) = &r.content {
                    out.insert((vpid, r.name.clone()), szip::crc32(b));
                }
            }
        }
        self.tr.end(0);
        self.check_s += t.elapsed().as_secs_f64();
        out
    }

    fn script(&mut self, wl: Workload, gaps: &[Nanos]) {
        let mut gaps = gaps.iter().copied();
        let mut gap = |cx: &mut Ctx| cx.gap(gaps.next().expect("gap schedule covers the script"));
        match wl {
            Workload::IsTraffic | Workload::RuncmsGzip => {
                for _ in 0..wl.checkpoints() {
                    self.tr.next_op();
                    gap(self);
                    self.checkpoint();
                }
                // Several restarts from the same generation: one restart
                // is too short (RunCMS: ~1 ms) to time reliably alone.
                for r in 0..RESTARTS {
                    self.tr.next_op();
                    if r == 0 {
                        gap(self);
                    }
                    if !self.restart(wl.restore_gen()) {
                        return;
                    }
                }
            }
            Workload::StoreCycle => {
                for _ in 0..wl.checkpoints() {
                    self.tr.next_op();
                    gap(self);
                    self.checkpoint();
                }
                // Taken as the incremental checkpoint returns, before the
                // hogs run again: memory then equals the image the restart
                // restores. Writes during the next gap are lost to the
                // kill, as in a crash.
                let before = self.hog_crcs();
                self.tr.next_op();
                gap(self);
                if !self.restart(wl.restore_gen()) {
                    return;
                }
                let after = self.hog_crcs();
                if before != after || before.is_empty() {
                    self.ep.errors.push(format!(
                        "restored memory differs: {} regions before the kill, {} after, {} equal",
                        before.len(),
                        after.len(),
                        before
                            .iter()
                            .filter(|(k, v)| after.get(*k) == Some(v))
                            .count()
                    ));
                }
            }
        }
    }
}

/// Completed restarts of generation `gen`: each restart appends its own
/// record.
fn restarts_done(w: &mut World, gen: u64) -> usize {
    coord_shared(w)
        .gen_stats
        .iter()
        .filter(|g| g.gen == gen && g.releases.contains_key(&stage::RESTART_REFILLED))
        .count()
}

/// Run one episode: set-up, the workload's script, then the digest of
/// what the simulation produced.
pub fn episode(wl: Workload, gaps: &[Nanos], traced: bool) -> Episode {
    let t0 = Instant::now();
    let mut cx = Ctx::new(wl, traced);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    cx.script(wl, gaps);
    let wall_s = t1.elapsed().as_secs_f64() - cx.check_s;
    let Ctx {
        mut w,
        sim,
        tr,
        mut ep,
        ..
    } = cx;
    ep.setup_s = setup_s;
    ep.wall_s = wall_s;
    ep.setup_samples = match wl.setup_batches() {
        Some((batches, n)) if !traced => (0..batches).map(|_| setup_batch(wl, n)).collect(),
        _ => vec![setup_s],
    };
    ep.events = sim.events_fired();
    ep.peak_rss_mb = peak_rss_mb();
    ep.digest = digest(&w, &sim, &ep.virt);
    ep.spans = tr.into_spans();
    if traced {
        let images = coord_shared(&mut w).last_images.clone();
        ep.world = Some((w, images));
    }
    ep
}

/// One RunCMS generation and its restart, untimed: the virtual outputs
/// `paper_err_pct` compares with the paper's §5.1 values.
pub fn runcms_probe() -> Virt {
    let mut cx = Ctx::new(Workload::RuncmsGzip, false);
    cx.checkpoint();
    cx.restart(None);
    cx.ep.virt
}

/// Mean host seconds of `n` set-ups run on their own, each world dropped
/// untimed.
fn setup_batch(wl: Workload, n: usize) -> f64 {
    let mut total = 0.0;
    for _ in 0..n {
        let t0 = Instant::now();
        let cx = Ctx::new(wl, false);
        total += t0.elapsed().as_secs_f64();
        drop(cx);
    }
    total / n as f64
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the virtual outputs, the final virtual time, the event
/// count, and every counter and histogram in the world's metrics
/// registry.
fn digest(w: &World, sim: &OsSim, v: &Virt) -> u64 {
    let mut h = Fnv::default();
    h.u64(sim.now().0);
    h.u64(sim.events_fired());
    for x in v.ckpt_s.iter().chain(&v.pause_s).chain(&v.restart_s) {
        h.u64(x.to_bits());
    }
    for x in v.image_bytes.iter().chain(&v.incr_images) {
        h.u64(*x);
    }
    for (k, val) in w.obs.metrics.counters() {
        h.bytes(k.name.as_bytes());
        h.u64(k.label);
        h.u64(val);
    }
    for (k, hist) in w.obs.metrics.hists() {
        h.bytes(k.name.as_bytes());
        h.u64(k.label);
        h.u64(hist.count());
        h.u64(hist.sum());
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_keeps_its_total() {
        for wl in ALL {
            let (first, total) = wl.gap_plan();
            let a = gap_schedule(wl, 7);
            assert_eq!(a.len(), wl.checkpoints() + 1);
            assert_eq!(a[0], first);
            assert_eq!(a[1..].iter().map(|g| g.0).sum::<u64>(), total.0);
            assert_eq!(a, gap_schedule(wl, 7));
        }
        assert_ne!(
            gap_schedule(Workload::IsTraffic, 1),
            gap_schedule(Workload::IsTraffic, 2)
        );
    }
}
