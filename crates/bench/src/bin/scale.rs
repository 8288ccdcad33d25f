//! Coordinator scale-out: Figure-6-style sweep of process count, flat star
//! vs hierarchical (per-node relay) topology.
//!
//! The paper's coordinator is a flat star: every manager registers with the
//! root, so each barrier stage costs the root O(processes) wire messages.
//! The relay tier collapses all managers on a node into one root client,
//! dropping root protocol work to O(nodes). This bench measures what that
//! buys: N sleeper processes with a small memory ballast spread over a
//! 64-node cluster, N swept from well below the node count to 64× past it
//! (256× with `DMTCP_SCALE_FULL=1`, the nightly profile), checkpointed
//! under both topologies.
//!
//! Reported per (topology, N): checkpoint wall time, root coordinator
//! messages per generation (the `coord.root_msgs` counter: every frame the
//! root sends or receives), and the longest single barrier-stage latency.
//!
//! Acceptance bar (enforced here, tracked by `scripts/bench_gate.sh`): at
//! N = 1024 the hierarchical topology must cut root messages per generation
//! at least 8× below flat, without making checkpoints slower.
//!
//! Regenerate with: `cargo run --release -p dmtcp-bench --bin scale`
//! Pass `--smoke` for the single-repetition variant tier-1 runs. Also
//! writes the flat `results/BENCH_scale.json` consumed by the CI
//! bench-regression gate.

use dmtcp::coord::{stage, GenStat};
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, Session, Topology};
use dmtcp_bench::{cluster_world, write_jsonl_lines, EV};
use obs::json::JsonWriter;
use oskit::program::{Program, Step};
use oskit::world::NodeId;
use oskit::Kernel;
use simkit::{Nanos, Snap};

const NODES: usize = 64;
/// Ballast per process: enough that the image stage does real work, small
/// enough that protocol traffic — not I/O — dominates at every N.
const BALLAST: u64 = 256 << 10;
/// Sweep points every run. The timer-wheel engine (ISSUE 9) makes 4096
/// cheap enough for PR CI; 8192/16384 are nightly-only (see [`points`]).
const POINTS: [usize; 6] = [16, 64, 256, 1024, 2048, 4096];
/// Nightly-only extension, enabled by `DMTCP_SCALE_FULL=1` (the scheduled
/// CI run sets it): the range where the flat star's collapse and the
/// O(nodes) relay claim are measured rather than extrapolated.
const FULL_POINTS: [usize; 2] = [8_192, 16_384];

/// The points this invocation sweeps. `DMTCP_SCALE_POINTS` (comma-separated
/// process counts) overrides the profile entirely — the knob for reproducing
/// a single red point locally without sweeping the rest.
fn points() -> Vec<usize> {
    if let Ok(v) = std::env::var("DMTCP_SCALE_POINTS") {
        return v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("DMTCP_SCALE_POINTS: process counts")
            })
            .collect();
    }
    let mut pts = POINTS.to_vec();
    if std::env::var("DMTCP_SCALE_FULL").is_ok_and(|v| v == "1") {
        pts.extend(FULL_POINTS);
    }
    pts
}

/// A process that allocates its ballast once and then sleeps in a loop —
/// the per-process cost floor, so the sweep isolates coordinator work.
struct Sleeper {
    pc: u8,
}
simkit::impl_snap!(struct Sleeper { pc });
impl Program for Sleeper {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            k.mmap_synthetic("ballast", BALLAST, 0x5ca1e, oskit::mem::FillProfile::Random);
            self.pc = 1;
        }
        Step::Sleep(Nanos::from_millis(10))
    }
    fn tag(&self) -> &'static str {
        "scale-sleeper"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

struct Row {
    topo: Topology,
    n: usize,
    /// Mean request → CHECKPOINTED, seconds.
    ckpt_s: f64,
    /// Mean root coordinator messages (in + out) per generation.
    root_msgs_per_gen: f64,
    /// Longest single barrier-stage latency seen in any generation, seconds.
    max_stage_s: f64,
}

fn topo_name(t: Topology) -> &'static str {
    match t {
        Topology::Flat => "flat",
        Topology::Hierarchical => "hier",
    }
}

/// Longest gap between consecutive barrier releases (from the request),
/// over the stop-the-world stages.
fn max_stage_latency(g: &GenStat) -> f64 {
    const ORDER: [u8; 6] = [
        stage::SUSPENDED,
        stage::ELECTED,
        stage::DRAINED,
        stage::CHECKPOINTED,
        stage::REFILLED,
        stage::CKPT_WRITTEN,
    ];
    let mut prev = g.requested_at;
    let mut worst = Nanos::ZERO;
    for s in ORDER {
        if let Some(&t) = g.releases.get(&s) {
            if t - prev > worst {
                worst = t - prev;
            }
            prev = t;
        }
    }
    worst.as_secs_f64()
}

fn run_point(topo: Topology, n: usize, reps: usize) -> Row {
    let (mut w, mut sim) = cluster_world(NODES);
    let opts = Options::builder().ckpt_dir("/ckpt").topology(topo).build();
    let s = Session::start(&mut w, &mut sim, opts);
    for i in 0..n {
        s.launch(
            &mut w,
            &mut sim,
            NodeId((i % NODES) as u32),
            "sleeper",
            Box::new(Sleeper { pc: 0 }),
        );
    }
    // Let every manager (and relay) connect and register.
    run_for(&mut w, &mut sim, Nanos::from_millis(200));

    let mut ckpt = 0.0;
    let mut msgs = 0.0;
    let mut worst_stage = 0.0f64;
    for _ in 0..reps {
        let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        let g: GenStat = s
            .wait_ckpt_written(&mut w, &mut sim, g.gen, EV)
            .expect("no faults armed: the write settles");
        assert_eq!(g.participants as usize, n, "every process checkpointed");
        ckpt += g.checkpoint_time().expect("complete").as_secs_f64();
        msgs += w.obs.metrics.counter("coord.root_msgs", g.gen) as f64;
        worst_stage = worst_stage.max(max_stage_latency(&g));
        run_for(&mut w, &mut sim, Nanos::from_millis(50));
    }
    Row {
        topo,
        n,
        ckpt_s: ckpt / reps as f64,
        root_msgs_per_gen: msgs / reps as f64,
        max_stage_s: worst_stage,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { dmtcp_bench::reps() };
    let points = points();
    println!("# scale: root coordinator load, flat star vs per-node relays");
    println!("# {NODES}-node cluster, sleeper procs with {BALLAST}-byte ballast, {reps} reps\n");

    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = points
        .iter()
        .flat_map(|&n| {
            [Topology::Flat, Topology::Hierarchical]
                .into_iter()
                .map(move |t| {
                    Box::new(move || run_point(t, n, reps)) as Box<dyn FnOnce() -> Row + Send>
                })
        })
        .collect();
    let rows = dmtcp_bench::run_parallel(jobs);

    let find = |t: Topology, n: usize| {
        rows.iter()
            .find(|r| r.topo == t && r.n == n)
            .expect("point ran")
    };

    println!("      N   topology   ckpt      root msgs/gen   max stage    reduction");
    let mut lines = Vec::new();
    for &n in &points {
        let f = find(Topology::Flat, n);
        let h = find(Topology::Hierarchical, n);
        let ratio = f.root_msgs_per_gen / h.root_msgs_per_gen.max(1.0);
        for r in [f, h] {
            println!(
                "  {:>5}   {:<8}  {:>6.3}s  {:>12.0}   {:>8.3}s    {}",
                r.n,
                topo_name(r.topo),
                r.ckpt_s,
                r.root_msgs_per_gen,
                r.max_stage_s,
                if r.topo == Topology::Hierarchical {
                    format!("{ratio:.1}x")
                } else {
                    String::new()
                }
            );
            let mut j = JsonWriter::new();
            j.obj_begin()
                .field_str("topology", topo_name(r.topo))
                .field_u64("n", r.n as u64)
                .field_f64("ckpt_s", r.ckpt_s)
                .field_f64("root_msgs_per_gen", r.root_msgs_per_gen)
                .field_f64("max_stage_s", r.max_stage_s)
                .obj_end();
            lines.push(j.into_string());
        }
    }
    match write_jsonl_lines("scale", lines) {
        Ok(p) => println!("# wrote {p}"),
        Err(e) => eprintln!("# jsonl write failed: {e}"),
    }

    // Flat key/value file for the CI bench-regression gate. `_s` and
    // `_per_gen` keys gate "lower is better"; `_ratio` keys gate "higher
    // is better" (see scripts/bench_gate.sh).
    // Nightly-only keys (N > 4096) must stay out of the committed baseline:
    // the gate fails on baseline keys missing from the results, and PR runs
    // don't produce them. In a nightly run they appear here as "new" keys,
    // which the gate only notes.
    let mut out = String::from("{\n");
    for &n in &points {
        let f = find(Topology::Flat, n);
        let h = find(Topology::Hierarchical, n);
        let ratio = f.root_msgs_per_gen / h.root_msgs_per_gen.max(1.0);
        for (key, v) in [
            (format!("scale_flat_n{n}_ckpt_s"), f.ckpt_s),
            (format!("scale_hier_n{n}_ckpt_s"), h.ckpt_s),
            (
                format!("scale_flat_n{n}_root_msgs_per_gen"),
                f.root_msgs_per_gen,
            ),
            (
                format!("scale_hier_n{n}_root_msgs_per_gen"),
                h.root_msgs_per_gen,
            ),
            (format!("scale_n{n}_root_msgs_reduction_ratio"), ratio),
        ] {
            out.push_str(&format!("  \"{key}\": {v:.6},\n"));
        }
    }
    out.truncate(out.len() - 2); // drop trailing ",\n"
    out.push_str("\n}\n");
    if let Err(e) = std::fs::write("results/BENCH_scale.json", &out) {
        eprintln!("# BENCH_scale.json write failed: {e}");
    } else {
        println!("# wrote results/BENCH_scale.json");
    }

    // Acceptance bar: the whole point of the relay tier.
    let mut bad = Vec::new();
    for &n in points.iter().filter(|&&n| n >= 1024) {
        let f = find(Topology::Flat, n);
        let h = find(Topology::Hierarchical, n);
        let ratio = f.root_msgs_per_gen / h.root_msgs_per_gen.max(1.0);
        if ratio < 8.0 {
            bad.push(format!(
                "N={n}: root msgs {:.0} flat vs {:.0} hier ({ratio:.1}x < 8x)",
                f.root_msgs_per_gen, h.root_msgs_per_gen
            ));
        }
        if h.ckpt_s > f.ckpt_s * 1.10 {
            bad.push(format!(
                "N={n}: hierarchical checkpoint {:.3}s slower than flat {:.3}s",
                h.ckpt_s, f.ckpt_s
            ));
        }
    }
    if !bad.is_empty() {
        eprintln!(
            "FAIL: relay tier must cut root load >= 8x at scale without \
             slowing checkpoints:\n  {}",
            bad.join("\n  ")
        );
        std::process::exit(1);
    }
    println!("\nok: >= 8x root-message reduction at N >= 1024, checkpoint time no worse");
}
