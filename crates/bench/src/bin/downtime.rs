//! Perceived downtime vs total checkpoint time under forked (two-phase)
//! checkpointing.
//!
//! With the copy-on-write fork pipeline the stop-the-world window ends at
//! the REFILLED barrier — the application resumes while compression and
//! image I/O drain in the background, acknowledged by the `CKPT_WRITTEN`
//! barrier. This bench runs NAS/MG (4 nodes × 2 procs) and RunCMS (desktop)
//! in both modes and reports, per checkpoint:
//!
//! * *perceived* — request → REFILLED release (what the application feels);
//! * *total*     — request → CKPT_WRITTEN release (when the generation is
//!   durable and restartable).
//!
//! Acceptance bar (enforced here, tracked by `scripts/bench_gate.sh`): in
//! forked mode the perceived pause must be at least 5× shorter than the
//! total checkpoint time on both workloads.
//!
//! Regenerate with: `cargo run --release -p dmtcp-bench --bin downtime`
//! Pass `--smoke` for the single-repetition variant tier-1 runs. Also
//! writes the flat `results/BENCH_ckpt.json` consumed by the CI
//! bench-regression gate.

use apps::nas::{nas_factory, NasKernel};
use dmtcp::coord::GenStat;
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Session};
use dmtcp_bench::{cluster_world, desktop_world, merge_flat_json, options, write_jsonl_lines, EV};
use obs::json::JsonWriter;
use oskit::world::{NodeId, OsSim, World};
use simkit::Nanos;
use simmpi::launch::{mpirun, Flavor, Launcher, MpiJob};

struct Row {
    workload: &'static str,
    forked: bool,
    /// Mean request → REFILLED, seconds.
    pause_s: f64,
    /// Mean request → CKPT_WRITTEN, seconds.
    total_s: f64,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.total_s / self.pause_s.max(1e-12)
    }
}

/// Checkpoint `reps` times and average both phase durations. The returned
/// stats always include the `CKPT_WRITTEN` release: in-line writers release
/// it together with REFILLED, forked writers after the background drain.
fn measure(w: &mut World, sim: &mut OsSim, s: &Session, reps: usize, gap: Nanos) -> (f64, f64) {
    let mut pause = 0.0;
    let mut total = 0.0;
    for _ in 0..reps {
        let g = s.checkpoint_and_wait(w, sim, EV).expect_ckpt();
        let g: GenStat = s
            .wait_ckpt_written(w, sim, g.gen, EV)
            .expect("no faults armed: drain completes");
        pause += g.total_pause().expect("refilled").as_secs_f64();
        total += g.written_time().expect("written").as_secs_f64();
        run_for(w, sim, gap);
    }
    (pause / reps as f64, total / reps as f64)
}

fn nas_mg(forked: bool, reps: usize) -> Row {
    const NODES: usize = 4;
    let (mut w, mut sim) = cluster_world(NODES);
    let s = Session::start(&mut w, &mut sim, options(true, forked, true));
    let job = MpiJob {
        flavor: Flavor::OpenMpi,
        nodes: (0..NODES as u32).map(NodeId).collect(),
        procs_per_node: 2,
        base_port: 30_000,
    };
    mpirun(
        &mut w,
        &mut sim,
        Launcher::Dmtcp(&s),
        &job,
        nas_factory(NasKernel::Mg, 1_000_000, 1024),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(400));
    let (pause_s, total_s) = measure(&mut w, &mut sim, &s, reps, Nanos::from_millis(50));
    Row {
        workload: "NAS/MG",
        forked,
        pause_s,
        total_s,
    }
}

fn runcms(forked: bool, reps: usize) -> Row {
    let (mut w, mut sim) = desktop_world();
    let s = Session::start(&mut w, &mut sim, options(true, forked, false));
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "runCMS",
        Box::new(apps::runcms::RunCms::new()),
    );
    run_for(&mut w, &mut sim, Nanos::from_secs(60));
    let (pause_s, total_s) = measure(&mut w, &mut sim, &s, reps, Nanos::from_secs(1));
    Row {
        workload: "RunCMS",
        forked,
        pause_s,
        total_s,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 3 };
    println!("# downtime: perceived stop-the-world vs total checkpoint time ({reps} reps)\n");

    let rows = vec![
        nas_mg(false, reps),
        nas_mg(true, reps),
        runcms(false, reps),
        runcms(true, reps),
    ];

    println!("  workload   mode     perceived   total     total/perceived");
    let mut lines = Vec::new();
    for r in &rows {
        println!(
            "  {:<9}  {:<7}  {:>7.3}s  {:>7.3}s   {:>6.1}x",
            r.workload,
            if r.forked { "forked" } else { "inline" },
            r.pause_s,
            r.total_s,
            r.ratio()
        );
        let mut j = JsonWriter::new();
        j.obj_begin()
            .field_str("workload", r.workload)
            .field_str("mode", if r.forked { "forked" } else { "inline" })
            .field_f64("pause_s", r.pause_s)
            .field_f64("total_s", r.total_s)
            .field_f64("ratio", r.ratio())
            .obj_end();
        lines.push(j.into_string());
    }
    match write_jsonl_lines("downtime", lines) {
        Ok(p) => println!("# wrote {p}"),
        Err(e) => eprintln!("# jsonl write failed: {e}"),
    }

    // Flat key/value file for the CI bench-regression gate: one key per
    // line so the shell gate can parse it without a JSON library. Keys
    // ending `_s` gate "lower is better"; `_ratio` gates "higher is
    // better" (see scripts/bench_gate.sh). Merged, not overwritten — the
    // `ckptstore` bench contributes its incremental-speedup keys to the
    // same file.
    let find = |wl: &str, forked: bool| {
        rows.iter()
            .find(|r| r.workload == wl && r.forked == forked)
            .expect("row")
    };
    if let Err(e) = merge_flat_json(
        "results/BENCH_ckpt.json",
        &[
            ("mg_inline_total_s", find("NAS/MG", false).total_s),
            ("mg_forked_pause_s", find("NAS/MG", true).pause_s),
            ("mg_forked_total_s", find("NAS/MG", true).total_s),
            ("mg_forked_ratio", find("NAS/MG", true).ratio()),
            ("cms_inline_total_s", find("RunCMS", false).total_s),
            ("cms_forked_pause_s", find("RunCMS", true).pause_s),
            ("cms_forked_total_s", find("RunCMS", true).total_s),
            ("cms_forked_ratio", find("RunCMS", true).ratio()),
        ],
    ) {
        eprintln!("# BENCH_ckpt.json write failed: {e}");
    } else {
        println!("# merged results/BENCH_ckpt.json");
    }

    // Acceptance bar: the whole point of the forked pipeline.
    let mut bad = Vec::new();
    for r in rows.iter().filter(|r| r.forked) {
        if r.ratio() < 5.0 {
            bad.push(format!(
                "{}: perceived {:.3}s vs total {:.3}s ({:.1}x < 5x)",
                r.workload,
                r.pause_s,
                r.total_s,
                r.ratio()
            ));
        }
    }
    if !bad.is_empty() {
        eprintln!(
            "FAIL: forked mode must shrink perceived downtime >= 5x:\n  {}",
            bad.join("\n  ")
        );
        std::process::exit(1);
    }
    println!("\nok: forked perceived downtime >= 5x below total on all workloads");
}
