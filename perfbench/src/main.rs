//! Two-clock benchmark of the DMTCP reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <is-traffic|runcms-gzip|store-cycle> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread: episodes run back to back (a closed loop)
//! until `--seconds` have passed. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` splits the time between untraced and traced
//! episodes and prints the per-layer metrics. The last line of standard
//! output is one JSON object; the exit code is 1 when a correctness check
//! fails. See `perfbench/README.md` for the design.

mod probes;
mod trace;
mod workloads;

use obs::json::{JsonValue, JsonWriter};
use probes::median;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{episode, gap_schedule, Episode, Virt, Workload};

/// End-to-end metrics and units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ckpt_wall_s", "s"),
    ("restart_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("paper_err_pct", "%"),
];

/// Per-layer metrics and units, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 42] = [
    ("simkit.events", "count"),
    ("simkit.host_ns_per_event", "ns"),
    ("oskit.world_build_s", "s"),
    ("oskit.net_tx_bytes", "bytes"),
    ("oskit.fill_mb_per_s", "MB/s"),
    ("simmpi.launch_s", "s"),
    ("apps.warmup_s", "s"),
    ("apps.gap_s", "s"),
    ("core.ckpt_call_s", "s"),
    ("core.restart_call_s", "s"),
    ("core.root_msgs", "count"),
    ("core.barrier_retries", "count"),
    ("core.ckpt_aborts", "count"),
    ("core.virt_ckpt_s", "s"),
    ("core.virt_pause_s", "s"),
    ("core.virt_restart_s", "s"),
    ("core.virt_stage.suspend_s", "s"),
    ("core.virt_stage.elect_s", "s"),
    ("core.virt_stage.drain_s", "s"),
    ("core.virt_stage.write_s", "s"),
    ("core.virt_stage.refill_s", "s"),
    ("mtcp.raw_bytes", "bytes"),
    ("mtcp.image_bytes", "bytes"),
    ("mtcp.restore_bytes", "bytes"),
    ("mtcp.incr_images", "count"),
    ("mtcp.verify_s", "s"),
    ("szip.bytes_in", "bytes"),
    ("szip.bytes_out", "bytes"),
    ("szip.ratio", "ratio"),
    ("szip.compress_mb_per_s", "MB/s"),
    ("szip.decompress_mb_per_s", "MB/s"),
    ("szip.crc_mb_per_s", "MB/s"),
    ("ckptstore.bytes_written", "bytes"),
    ("ckptstore.bytes_deduped", "bytes"),
    ("ckptstore.dedup_ratio", "ratio"),
    ("ckptstore.resolve_s", "s"),
    ("apps.gap_share_pct", "%"),
    ("core.ckpt_share_pct", "%"),
    ("core.kill_share_pct", "%"),
    ("core.restart_share_pct", "%"),
    ("bench.unattributed_share_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
];

/// Untraced episodes per run at least, so every median has three samples
/// and the determinism check two.
const MIN_EPISODES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    };
    if kv.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(args)
}

/// Run episodes until `budget` has passed and at least `min` ran.
fn run_episodes(
    wl: Workload,
    seed: u64,
    traced: bool,
    budget: Duration,
    min: usize,
) -> Vec<Episode> {
    let gaps = gap_schedule(wl, seed);
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        out.push(episode(wl, &gaps, traced));
        eprintln!(
            "# {} episode {}: setup {:.3} s, wall {:.3} s",
            wl.name(),
            out.len(),
            out.last().map_or(0.0, |e| e.setup_s),
            out.last().map_or(0.0, |e| e.wall_s)
        );
    }
    out
}

/// Mean absolute relative error, in percent, of RunCMS's virtual
/// checkpoint time, restart time and gzip'd image size against §5.1.
fn paper_err_pct(v: &Virt) -> Option<f64> {
    let doc =
        JsonValue::parse(include_str!("../data/paper_ref.json")).expect("paper_ref.json parses");
    let r = doc.get("runcms").expect("runcms reference");
    let want = |k: &str| {
        r.get(k)
            .and_then(JsonValue::as_f64)
            .expect("reference value")
    };
    let got = [
        *v.ckpt_s.first()?,
        *v.restart_s.first()?,
        *v.image_bytes.first()? as f64 / (1u64 << 20) as f64,
    ];
    let err: f64 = got
        .iter()
        .zip([want("ckpt_s"), want("restart_s"), want("image_mb")])
        .map(|(g, p)| (g - p).abs() / p)
        .sum();
    Some(100.0 * err / 3.0)
}

/// Digest check across processes: the first run of a seed with this
/// binary records its digest next to the binary; later runs must match.
fn check_persisted_digest(wl: Workload, seed: u64, digest: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let stamp = std::fs::metadata(&exe)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let dir = exe
        .parent()
        .ok_or("binary has no directory")?
        .join("perfbench-digests");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-s{seed}-{stamp}", wl.name()));
    match std::fs::read_to_string(&path) {
        Ok(old) if old.trim() == format!("{digest:016x}") => Ok(()),
        Ok(old) => Err(format!(
            "digest {digest:016x} differs from {} recorded by an earlier run of seed {seed}",
            old.trim()
        )),
        Err(_) => std::fs::write(&path, format!("{digest:016x}\n")).map_err(|e| e.to_string()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let wl = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let plain = if args.trace {
        run_episodes(wl, args.seed, false, budget / 2, 1)
    } else {
        run_episodes(wl, args.seed, false, budget, MIN_EPISODES)
    };
    let traced = if args.trace {
        run_episodes(wl, args.seed, true, budget / 2, 1)
    } else {
        Vec::new()
    };

    let mut errors: Vec<String> = Vec::new();
    let all: Vec<&Episode> = plain.iter().chain(&traced).collect();
    for e in &all {
        errors.extend(e.errors.iter().cloned());
    }
    let digest = all[0].digest;
    if all.iter().any(|e| e.digest != digest) {
        let ds: Vec<String> = all.iter().map(|e| format!("{:016x}", e.digest)).collect();
        errors.push(format!("episodes of one seed disagree: {}", ds.join(" ")));
    }
    if let Err(e) = check_persisted_digest(wl, args.seed, digest) {
        errors.push(e);
    }
    let attempted: u64 = all.iter().map(|e| e.attempted).sum();
    let failed: u64 = all.iter().map(|e| e.failed).sum();

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    if args.trace {
        let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for e in &traced {
            let (m, errs) = probes::layer_metrics(e);
            errors.extend(errs);
            for (k, v) in m {
                per.entry(k).or_default().push(v);
            }
        }
        let wall = |eps: &[Episode]| median(&eps.iter().map(|e| e.wall_s).collect::<Vec<_>>());
        let (traced_wall, plain_wall) = (wall(&traced), wall(&plain));
        per.entry("obs.trace_overhead_pct")
            .or_default()
            .push(100.0 * (traced_wall - plain_wall) / plain_wall);
        for (name, _) in PER_LAYER {
            let v = per
                .get(name)
                .unwrap_or_else(|| panic!("no value for {name}"));
            metrics.push((name, median(v)));
        }
    } else {
        let setups: Vec<f64> = plain
            .iter()
            .flat_map(|e| e.setup_samples.iter().copied())
            .collect();
        // Per episode the median over its calls, then the median over
        // episodes. store-cycle has one full and one incremental
        // checkpoint per episode, twentyfold apart; the median of the two
        // is their mean, where a median over all calls of the run would
        // jump between the two.
        let per_call = |f: fn(&Episode) -> &Vec<f64>| -> f64 {
            let meds: Vec<f64> = plain
                .iter()
                .filter(|e| !f(e).is_empty())
                .map(|e| median(f(e)))
                .collect();
            median(&meds)
        };
        // Every workload reports RunCMS fidelity; workloads other than
        // RunCMS take it from a one-generation RunCMS probe run after
        // their episodes, outside every timing.
        let virt = if wl == Workload::RuncmsGzip {
            plain[0].virt.clone()
        } else {
            workloads::runcms_probe()
        };
        let paper = paper_err_pct(&virt).unwrap_or_else(|| {
            errors.push("RunCMS produced no checkpoint or restart to compare".into());
            0.0
        });
        metrics.extend([
            ("setup_s", median(&setups)),
            (
                "wall_s",
                median(&plain.iter().map(|e| e.wall_s).collect::<Vec<_>>()),
            ),
            ("ckpt_wall_s", per_call(|e| &e.ckpt_s)),
            ("restart_wall_s", per_call(|e| &e.restart_s)),
            ("peak_rss_mb", plain[0].peak_rss_mb),
            ("ok_ratio", (attempted - failed) as f64 / attempted as f64),
            ("paper_err_pct", paper),
        ]);
    }

    if args.trace {
        let spans: Vec<&[trace::Span]> = traced.iter().map(|e| e.spans.as_slice()).collect();
        let out = std::env::current_exe().ok().and_then(|p| {
            p.parent()
                .map(|d| d.join(format!("perfbench-trace-{}.json", wl.name())))
        });
        if let Some(p) = out {
            match std::fs::write(&p, trace::chrome_json(&spans)) {
                Ok(()) => eprintln!("# spans written to {}", p.display()),
                Err(e) => eprintln!("# span write failed: {e}"),
            }
        }
    }

    for e in &errors {
        eprintln!("# correctness: {e}");
    }
    let correct = errors.is_empty();
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let mut j = JsonWriter::new();
    j.obj_begin()
        .key("correct")
        .val_bool(correct)
        .field_u64("attempted", attempted)
        .field_u64("failed", failed)
        .key("metrics")
        .obj_begin();
    for (name, v) in &metrics {
        j.key(name)
            .obj_begin()
            .field_f64("value", *v)
            .field_str("unit", units[name])
            .obj_end();
    }
    j.obj_end().obj_end();
    println!("# digest {digest:016x}");
    println!("{}", j.into_string());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables above are what `BENCHMARK.json` declares.
    #[test]
    fn tables_match_benchmark_json() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .expect("string")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let wls: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let own_wls: Vec<String> = workloads::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(wls, own_wls);
    }

    #[test]
    fn paper_error_is_zero_on_the_paper_values() {
        let v = Virt {
            ckpt_s: vec![25.2],
            restart_s: vec![18.4],
            image_bytes: vec![225 << 20],
            ..Virt::default()
        };
        assert!(paper_err_pct(&v).expect("complete") < 1e-9);
    }
}
