//! Multi-tenant service throughput: one shared coordinator vs a sharded
//! `dmtcpd` under Poisson checkpoint storms.
//!
//! The paper's coordinator serves one computation; dmtcpd multiplexes many.
//! This bench opens 64 tenant sessions of 8 processes each against two
//! deployments of the same daemon — a single shared shard (every session's
//! barrier traffic funnels through one coordinator, so every generation is
//! a 512-process stop-the-world) and an 8-way sharded daemon (each shard
//! checkpoints only its own 64 processes, eight generations in flight at
//! once). Each session fires checkpoint requests as an independent Poisson
//! process (deterministic exponential inter-arrivals, one xoshiro stream
//! per session), so request storms overlap and coalesce exactly as a busy
//! service would see them.
//!
//! Reported per deployment: completed generations per second aggregated
//! over all shard coordinators (`agg_ckpts_per_sec`), and the p99 perceived
//! pause — suspend-barrier release to refill-barrier release, weighted by
//! participants, since that is the stop-the-world window every process in
//! the generation sits through.
//!
//! Acceptance bar (enforced here, tracked by `scripts/bench_gate.sh`): the
//! sharded daemon must sustain at least 3x the shared coordinator's
//! aggregate checkpoint rate without worsening the p99 perceived pause.
//!
//! Regenerate with: `cargo run --release -p dmtcp-bench --bin tenants`
//! Pass `--smoke` for the shorter-storm variant tier-1 runs. Also writes
//! the flat `results/BENCH_tenants.json` consumed by the CI
//! bench-regression gate.

use dmtcp::coord::{coord_shared_for, stage, GenStat};
use dmtcp::session::run_for;
use dmtcp_bench::{cluster_world, write_jsonl_lines};
use obs::json::JsonWriter;
use oskit::program::{Program, Step};
use oskit::world::NodeId;
use oskit::Kernel;
use simkit::rng::{mix2, DetRng};
use simkit::{Nanos, Snap, Summary};
use svc::{shard_root_port, DaemonConfig, Dmtcpd};

const NODES: usize = 32;
const SESSIONS: u64 = 64;
const PROCS_PER_SESSION: usize = 8;
/// Ballast per process: enough that image writes are real work, small
/// enough that barrier traffic — not I/O — sets the pace.
const BALLAST: u64 = 128 << 10;
/// Mean inter-arrival of one session's checkpoint requests, seconds.
const MEAN_GAP_S: f64 = 1.0;
/// Extra settle time after the storm window so in-flight generations
/// complete before we read the stats.
const SETTLE_S: f64 = 3.0;

/// A tenant process: allocates its ballast once, then sleeps in a loop —
/// the per-process cost floor, so the sweep isolates service behavior.
struct Tenant {
    pc: u8,
}
simkit::impl_snap!(struct Tenant { pc });
impl Program for Tenant {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            k.mmap_synthetic(
                "ballast",
                BALLAST,
                0x7e4a47,
                oskit::mem::FillProfile::Random,
            );
            self.pc = 1;
        }
        Step::Sleep(Nanos::from_millis(10))
    }
    fn tag(&self) -> &'static str {
        "tenant-sleeper"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

struct Row {
    shards: u16,
    completed: usize,
    window_s: f64,
    agg_rate: f64,
    pause: Summary,
}

/// Perceived pause of one generation: suspend release to refill release —
/// the window every participant spends stopped.
fn pause_s(g: &GenStat) -> Option<f64> {
    let s = g.releases.get(&stage::SUSPENDED)?;
    let r = g.releases.get(&stage::REFILLED)?;
    Some((*r - *s).as_secs_f64())
}

fn run_point(shards: u16, window_s: f64) -> Row {
    let (mut w, mut sim) = cluster_world(NODES);
    let d = Dmtcpd::start(
        &mut w,
        &mut sim,
        DaemonConfig {
            shards,
            ..DaemonConfig::default()
        },
    );
    let mut clients = Vec::new();
    for s in 0..SESSIONS {
        let c = d
            .open(
                &mut w,
                &mut sim,
                &format!("tenant{s}"),
                PROCS_PER_SESSION as u32,
            )
            .expect("under the admission ceiling");
        for p in 0..PROCS_PER_SESSION {
            let node = 1 + ((s as usize * PROCS_PER_SESSION + p) % (NODES - 1));
            c.session.launch(
                &mut w,
                &mut sim,
                NodeId(node as u32),
                "tenant",
                Box::new(Tenant { pc: 0 }),
            );
        }
        clients.push(c);
    }
    // Let every manager connect and register before the storm opens.
    run_for(&mut w, &mut sim, Nanos::from_millis(200));
    let t0 = sim.now();

    // Draw every session's Poisson arrivals for the window up front, then
    // fire them in global time order.
    let mut arrivals: Vec<(Nanos, usize)> = Vec::new();
    for (i, _) in clients.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(mix2(0x7e4a475, i as u64));
        let mut t = 0.0;
        loop {
            t += -MEAN_GAP_S * (1.0 - rng.unit_f64()).ln();
            if t >= window_s {
                break;
            }
            arrivals.push((t0 + Nanos::from_secs_f64(t), i));
        }
    }
    arrivals.sort();
    let requests = arrivals.len();
    for (at, i) in arrivals {
        sim.run_until(&mut w, at);
        clients[i].request_checkpoint(&mut w, &mut sim);
    }
    let t_end = t0 + Nanos::from_secs_f64(window_s);
    sim.run_until(&mut w, t_end);
    run_for(&mut w, &mut sim, Nanos::from_secs_f64(SETTLE_S));

    // Completed generations across every shard whose refill barrier
    // released inside the window; pause samples weighted by participants.
    let mut completed = 0;
    let mut pauses = Vec::new();
    for shard in 0..shards {
        let port = shard_root_port(&d.cfg, shard);
        for g in coord_shared_for(&mut w, port).gen_stats.clone() {
            if g.aborted {
                continue;
            }
            let Some(p) = pause_s(&g) else { continue };
            let Some(&refilled) = g.releases.get(&stage::REFILLED) else {
                continue;
            };
            if refilled <= t0 || refilled > t_end {
                continue;
            }
            completed += 1;
            pauses.extend(std::iter::repeat_n(p, g.participants as usize));
        }
    }
    assert!(
        completed > 0,
        "{shards}-shard run completed no generations out of {requests} requests"
    );
    Row {
        shards,
        completed,
        window_s,
        agg_rate: completed as f64 / window_s,
        pause: Summary::of(&pauses),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let window_s = if smoke { 2.0 } else { 10.0 };
    println!("# tenants: shared coordinator vs sharded dmtcpd under Poisson storms");
    println!(
        "# {SESSIONS} sessions x {PROCS_PER_SESSION} procs, {BALLAST}-byte ballast, \
         mean request gap {MEAN_GAP_S}s, {window_s}s storm window\n"
    );

    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = [1u16, 8]
        .into_iter()
        .map(|shards| {
            Box::new(move || run_point(shards, window_s)) as Box<dyn FnOnce() -> Row + Send>
        })
        .collect();
    let rows = dmtcp_bench::run_parallel(jobs);
    let (shared, sharded) = (&rows[0], &rows[1]);

    println!("  shards   completed   agg ckpts/s   p50 pause   p99 pause");
    let mut lines = Vec::new();
    for r in &rows {
        println!(
            "  {:>6}   {:>9}   {:>11.2}   {:>8.3}s   {:>8.3}s",
            r.shards, r.completed, r.agg_rate, r.pause.p50, r.pause.p99
        );
        let mut j = JsonWriter::new();
        j.obj_begin()
            .field_u64("shards", r.shards as u64)
            .field_u64("sessions", SESSIONS)
            .field_u64("procs_per_session", PROCS_PER_SESSION as u64)
            .field_f64("window_s", r.window_s)
            .field_u64("completed_gens", r.completed as u64)
            .field_f64("agg_ckpts_per_sec", r.agg_rate)
            .field_f64("p50_pause_s", r.pause.p50)
            .field_f64("p99_pause_s", r.pause.p99)
            .obj_end();
        lines.push(j.into_string());
    }
    match write_jsonl_lines("tenants", lines) {
        Ok(p) => println!("# wrote {p}"),
        Err(e) => eprintln!("# jsonl write failed: {e}"),
    }

    // Flat key/value file for the CI bench-regression gate: `_per_sec` and
    // `_ratio` keys gate "higher is better", `_s` keys "lower is better"
    // (see scripts/bench_gate.sh).
    let speedup = sharded.agg_rate / shared.agg_rate.max(f64::MIN_POSITIVE);
    if let Err(e) = dmtcp_bench::merge_flat_json(
        "results/BENCH_tenants.json",
        &[
            ("agg_ckpts_per_sec", sharded.agg_rate),
            ("tenants_p99_pause_s", sharded.pause.p99),
            ("tenants_shared_ckpts_per_sec", shared.agg_rate),
            ("tenants_shared_p99_pause_s", shared.pause.p99),
            ("tenants_speedup_ratio", speedup),
        ],
    ) {
        eprintln!("# BENCH_tenants.json write failed: {e}");
    } else {
        println!("# wrote results/BENCH_tenants.json");
    }

    // Acceptance bar: the whole point of sharding the service.
    let mut bad = Vec::new();
    if speedup < 3.0 {
        bad.push(format!(
            "aggregate rate {:.2}/s sharded vs {:.2}/s shared ({speedup:.1}x < 3x)",
            sharded.agg_rate, shared.agg_rate
        ));
    }
    if sharded.pause.p99 > shared.pause.p99 * 1.10 {
        bad.push(format!(
            "sharded p99 pause {:.3}s worse than shared {:.3}s",
            sharded.pause.p99, shared.pause.p99
        ));
    }
    if !bad.is_empty() {
        eprintln!(
            "FAIL: sharded dmtcpd must sustain >= 3x aggregate checkpoint rate \
             at no worse p99 pause:\n  {}",
            bad.join("\n  ")
        );
        std::process::exit(1);
    }
    println!(
        "\nok: {speedup:.1}x aggregate checkpoint rate at p99 pause {:.3}s (shared {:.3}s)",
        sharded.pause.p99, shared.pause.p99
    );
}
