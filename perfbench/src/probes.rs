//! Per-layer metrics of one traced episode: span totals, the program's
//! own counters, the virtual-clock stage breakdown, and timed calls into
//! the layers' public functions on the episode's own data (its images,
//! its synthetic region recipes, its real region bytes). The probes run
//! after the script, so they never count towards `wall_s`.

use crate::trace::totals_by_name;
use crate::workloads::Episode;
use oskit::mem::{Content, FillProfile};
use oskit::world::World;
use std::time::Instant;

const MB: f64 = (1u64 << 20) as f64;
/// Fill sampled per synthetic region, and in total.
const FILL_PER_REGION: u64 = 1 << 20;
const FILL_TOTAL: usize = 32 << 20;
/// Bytes handed to the szip probes; topped up with fill samples when the
/// world holds fewer real bytes than `SZIP_MIN`.
const SZIP_MAX: usize = 32 << 20;
const SZIP_MIN: usize = 8 << 20;

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Named per-layer values of one traced episode, plus any correctness
/// violation the probes found.
pub fn layer_metrics(ep: &Episode) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let (w, images) = ep.world.as_ref().expect("traced episode keeps its world");
    let mut errors = Vec::new();
    let spans = totals_by_name(&ep.spans);
    let total = |n: &str| spans.get(n).map_or(0.0, |t| t.total_s);
    let self_s = |n: &str| spans.get(n).map_or(0.0, |t| t.self_s);
    let events = |n: &str| spans.get(n).map_or(0, |t| t.events);
    let share = |s: f64| 100.0 * ratio(s, ep.wall_s);
    let c = |n: &str| w.obs.metrics.counter_total(n) as f64;

    let traffic_s = total("apps.gap") + total("apps.warmup");
    let traffic_ev = events("apps.gap") + events("apps.warmup");
    let attributed = self_s("apps.gap")
        + self_s("core.ckpt_call")
        + self_s("core.kill")
        + self_s("core.restart_call");
    let stages = dmtcp_bench::stage_breakdown(w, None);
    let v = &ep.virt;

    let (fill_bytes, fill_s, fill_sample) = fill_probe(w);
    let (comp, decomp, crc) = szip_probe(w, fill_sample, &mut errors);
    let (verify_s, resolve_s) = image_probe(w, images, &mut errors);

    let szip_in = c("szip.bytes_in");
    let store_written = c("ckptstore.bytes_written");
    let store_deduped = c("ckptstore.bytes_deduped");
    let out = vec![
        ("simkit.events", ep.events as f64),
        (
            "simkit.host_ns_per_event",
            1e9 * ratio(traffic_s, traffic_ev as f64),
        ),
        ("oskit.world_build_s", total("oskit.world_build")),
        ("oskit.net_tx_bytes", c("oskit.net.tx_bytes")),
        ("oskit.fill_mb_per_s", ratio(fill_bytes as f64 / MB, fill_s)),
        ("simmpi.launch_s", total("simmpi.launch")),
        ("apps.warmup_s", total("apps.warmup")),
        ("apps.gap_s", total("apps.gap")),
        ("core.ckpt_call_s", total("core.ckpt_call")),
        ("core.restart_call_s", total("core.restart")),
        ("core.root_msgs", c("coord.root_msgs")),
        ("core.barrier_retries", c("core.barrier.retries")),
        ("core.ckpt_aborts", c("core.ckpt.aborts")),
        ("core.virt_ckpt_s", median(&v.ckpt_s)),
        ("core.virt_pause_s", median(&v.pause_s)),
        ("core.virt_restart_s", median(&v.restart_s)),
        ("core.virt_stage.suspend_s", stages.suspend),
        ("core.virt_stage.elect_s", stages.elect),
        ("core.virt_stage.drain_s", stages.drain),
        ("core.virt_stage.write_s", stages.write),
        ("core.virt_stage.refill_s", stages.refill),
        ("mtcp.raw_bytes", c("mtcp.image.raw_bytes")),
        ("mtcp.image_bytes", c("mtcp.image.bytes")),
        ("mtcp.restore_bytes", c("mtcp.restore.bytes")),
        ("mtcp.incr_images", c("mtcp.incr.images")),
        ("mtcp.verify_s", verify_s),
        ("szip.bytes_in", szip_in),
        ("szip.bytes_out", c("szip.bytes_out")),
        ("szip.ratio", ratio(szip_in, c("szip.bytes_out"))),
        ("szip.compress_mb_per_s", comp),
        ("szip.decompress_mb_per_s", decomp),
        ("szip.crc_mb_per_s", crc),
        ("ckptstore.bytes_written", store_written),
        ("ckptstore.bytes_deduped", store_deduped),
        (
            "ckptstore.dedup_ratio",
            ratio(store_deduped, store_written + store_deduped),
        ),
        ("ckptstore.resolve_s", resolve_s),
        ("apps.gap_share_pct", share(self_s("apps.gap"))),
        ("core.ckpt_share_pct", share(self_s("core.ckpt_call"))),
        ("core.kill_share_pct", share(self_s("core.kill"))),
        ("core.restart_share_pct", share(self_s("core.restart_call"))),
        (
            "bench.unattributed_share_pct",
            share(ep.wall_s - attributed),
        ),
    ];
    (out, errors)
}

/// Every synthetic region recipe in the world.
fn recipes(w: &World) -> Vec<(u64, u64, FillProfile)> {
    let mut out = Vec::new();
    for p in w.procs.values().filter(|p| p.alive()) {
        for (_, r) in p.mem.iter() {
            if let Content::Synthetic { seed, len, profile } = &r.content {
                out.push((*seed, *len, *profile));
            }
        }
    }
    out
}

/// `FillProfile::bytes` on the world's own recipes: bytes generated, host
/// seconds, and the generated sample.
fn fill_probe(w: &World) -> (usize, f64, Vec<u8>) {
    let mut sample = Vec::new();
    let mut secs = 0.0;
    for (seed, len, profile) in recipes(w) {
        if sample.len() >= FILL_TOTAL {
            break;
        }
        let n = len.min(FILL_PER_REGION) as usize;
        let t = Instant::now();
        let bytes = std::hint::black_box(profile.bytes(seed, n));
        secs += t.elapsed().as_secs_f64();
        sample.extend_from_slice(&bytes);
    }
    (sample.len(), secs, sample)
}

/// `szip::{compress, decompress, crc32}` throughput in MB/s on the world's
/// real region bytes, topped up with fill samples when those are few.
fn szip_probe(w: &World, fill: Vec<u8>, errors: &mut Vec<String>) -> (f64, f64, f64) {
    let mut input = Vec::new();
    'procs: for p in w.procs.values().filter(|p| p.alive()) {
        for (_, r) in p.mem.iter() {
            match &r.content {
                Content::Real(b) => input.extend_from_slice(b),
                Content::Shared(b) => input.extend_from_slice(&b.borrow()),
                Content::Synthetic { .. } => {}
            }
            if input.len() >= SZIP_MAX {
                break 'procs;
            }
        }
    }
    if input.len() < SZIP_MIN {
        input.extend_from_slice(&fill[..fill.len().min(SZIP_MIN)]);
    }
    input.truncate(SZIP_MAX);
    if input.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mb = input.len() as f64 / MB;
    let t = Instant::now();
    let packed = std::hint::black_box(szip::compress(&input));
    let comp_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let unpacked = std::hint::black_box(szip::decompress(&packed));
    let decomp_s = t.elapsed().as_secs_f64();
    if unpacked.as_deref() != Ok(&input[..]) {
        errors.push("szip round trip changed the probe bytes".into());
    }
    let t = Instant::now();
    std::hint::black_box(szip::crc32(&input));
    let crc_s = t.elapsed().as_secs_f64();
    (ratio(mb, comp_s), ratio(mb, decomp_s), ratio(mb, crc_s))
}

/// Host seconds to verify (`mtcp::verify_image`) and to resolve through
/// the store (`ckptstore::resolve_image`) every image of the last
/// generation. Without a store the resolve finds nothing, quickly.
fn image_probe(w: &World, images: &[(String, String)], errors: &mut Vec<String>) -> (f64, f64) {
    let (mut verify_s, mut resolve_s) = (0.0, 0.0);
    for (path, host) in images {
        let Some(node) = w.resolve(host) else {
            errors.push(format!("image host {host} unknown"));
            continue;
        };
        let t = Instant::now();
        let r = mtcp::verify_image(w, node, path);
        verify_s += t.elapsed().as_secs_f64();
        if let Err(e) = r {
            errors.push(format!("{path} fails verification: {e:?}"));
        }
        let t = Instant::now();
        std::hint::black_box(ckptstore::resolve_image(w, node, path));
        resolve_s += t.elapsed().as_secs_f64();
    }
    (verify_s, resolve_s)
}
