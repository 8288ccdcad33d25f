//! Workload correctness: the kernels compute verified results, run under
//! both MPI flavors, and survive checkpoint/kill/restart bit-identically.

use apps::nas::{nas_factory, NasKernel};
use apps::registry::full_registry;
use apps::result_path;
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use oskit::world::{NodeId, OsSim, World};
use oskit::HwSpec;
use simkit::{Nanos, Sim};
use simmpi::launch::{mpirun, Flavor, Launcher, MpiJob};

const EV: u64 = 30_000_000;

fn world(nodes: usize) -> (World, OsSim) {
    (
        World::new(HwSpec::cluster(), nodes, full_registry()),
        Sim::new(),
    )
}

fn job(nodes: usize, ppn: usize, flavor: Flavor) -> MpiJob {
    MpiJob {
        flavor,
        nodes: (0..nodes as u32).map(NodeId).collect(),
        procs_per_node: ppn,
        base_port: 30_000,
    }
}

fn nas_result(w: &World, kernel: NasKernel) -> Option<String> {
    w.shared_fs
        .read_all(&result_path(&format!("nas-{}", kernel.name())))
        .ok()
        .map(|b| String::from_utf8(b).expect("utf8"))
}

fn run_nas(kernel: NasKernel, nodes: usize, ppn: usize, iters: u32, local_n: u32) -> String {
    let (mut w, mut sim) = world(nodes);
    mpirun(
        &mut w,
        &mut sim,
        Launcher::Raw,
        &job(nodes, ppn, Flavor::OpenMpi),
        nas_factory(kernel, iters, local_n),
    );
    assert!(sim.run_bounded(&mut w, EV), "{} deadlocked", kernel.name());
    nas_result(&w, kernel).expect("kernel finished")
}

#[test]
fn ep_tallies_are_deterministic_and_rank_dependent() {
    let a = run_nas(NasKernel::Ep, 2, 2, 4, 2_000);
    assert_eq!(a, run_nas(NasKernel::Ep, 2, 2, 4, 2_000), "determinism");
    let b = run_nas(NasKernel::Ep, 2, 2, 4, 1_000);
    assert_ne!(a, b, "scale must change the tallies");
}

#[test]
fn is_sorts_globally() {
    // The kernel itself asserts boundary order; the result is the global
    // key-sum + count, which must match the direct computation.
    let got = run_nas(NasKernel::Is, 2, 2, 1, 3_000);
    // Recompute expected: same RNG streams as NasRank::setup.
    let mut expect_sum = 0.0f64;
    let mut expect_cnt = 0.0f64;
    for rank in 0..4u32 {
        let mut rng = simkit::rng::DetRng::seed_from_u64(
            0x4a5 ^ (rank as u64) << 8 ^ NasKernel::Is.ballast_mb(),
        );
        for _ in 0..3_000 {
            expect_sum += rng.below(1 << 20) as f64;
            expect_cnt += 1.0;
        }
    }
    let expect = format!("{:.10e}", expect_sum + expect_cnt);
    assert_eq!(got, expect, "IS checksum");
}

#[test]
fn cg_residual_decreases_and_is_deterministic() {
    let r10 = run_nas(NasKernel::Cg, 2, 2, 10, 400);
    let r30 = run_nas(NasKernel::Cg, 2, 2, 30, 400);
    let v10: f64 = r10.parse().expect("f64");
    let v30: f64 = r30.parse().expect("f64");
    assert!(v10.is_finite() && v30.is_finite());
    assert!(
        v30 < v10 * 0.5,
        "CG must converge: ‖r‖ after 30 iters {v30} vs after 10 {v10}"
    );
    assert_eq!(r10, run_nas(NasKernel::Cg, 2, 2, 10, 400));
}

#[test]
fn sweep_kernels_run_and_differ() {
    let mg = run_nas(NasKernel::Mg, 2, 2, 3, 500);
    let lu = run_nas(NasKernel::Lu, 2, 2, 3, 500);
    assert!(mg.parse::<f64>().expect("f64").is_finite());
    assert_ne!(mg, lu, "kernel constants differ");
}

#[test]
fn nas_cg_survives_checkpoint_kill_restart() {
    let iters = 200;
    let reference = run_nas(NasKernel::Cg, 2, 2, iters, 2_000);

    let (mut w, mut sim) = world(2);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    mpirun(
        &mut w,
        &mut sim,
        Launcher::Dmtcp(&s),
        &job(2, 2, Flavor::OpenMpi),
        nas_factory(NasKernel::Cg, iters, 2_000),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(100));
    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    let gen = stat.gen;
    assert_eq!(stat.participants, 7, "console + 2 orted + 4 ranks");
    s.kill_computation(&mut w, &mut sim);
    RestartPlan::from_generation(&w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    s.wait_restart_done(&mut w, &mut sim, gen, EV);
    assert!(sim.run_bounded(&mut w, EV), "restored CG deadlocked");
    assert_eq!(
        nas_result(&w, NasKernel::Cg).expect("finished"),
        reference,
        "CG result diverged across checkpoint/restart"
    );
}

#[test]
fn ipython_demo_completes_and_is_deterministic() {
    let run = || -> String {
        let (mut w, mut sim) = world(2);
        let nodes: Vec<NodeId> = vec![NodeId(0), NodeId(1)];
        apps::ipython::launch_demo(&mut w, &mut sim, None, &nodes, 25);
        assert!(sim.run_bounded(&mut w, EV), "ipython deadlocked");
        String::from_utf8(
            w.shared_fs
                .read_all(&result_path("ipython-demo"))
                .expect("result"),
        )
        .expect("utf8")
    };
    assert_eq!(run(), run());
}

#[test]
fn desktop_catalogue_images_scale_with_footprint() {
    // Launch bc (tiny) and matlab (big) under DMTCP on the desktop machine
    // and compare image sizes after one checkpoint.
    let mut w = World::new(HwSpec::desktop(), 1, full_registry());
    let mut sim = Sim::new();
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    let bc = apps::desktop::spec_by_name("bc").expect("bc");
    let matlab = apps::desktop::spec_by_name("matlab").expect("matlab");
    apps::desktop::launch_desktop(&mut w, &mut sim, Some(&s), NodeId(0), bc, 1);
    apps::desktop::launch_desktop(&mut w, &mut sim, Some(&s), NodeId(0), matlab, 2);
    run_for(&mut w, &mut sim, Nanos::from_millis(30));
    s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    let sizes: Vec<(String, u64)> = w
        .shared_fs
        .list_prefix("/shared/ckpt/")
        .map(|p| (p.to_string(), w.shared_fs.size(p).expect("image")))
        .collect();
    assert_eq!(sizes.len(), 2);
    let max = sizes.iter().map(|(_, s)| *s).max().expect("two");
    let min = sizes.iter().map(|(_, s)| *s).min().expect("two");
    assert!(max > min * 10, "matlab image must dwarf bc: {sizes:?}");
    // And compression must have bitten: matlab raw is 89 MiB.
    assert!(max < 70 << 20, "compression applied: {max}");
}

#[test]
fn vnc_session_checkpoints_with_live_viewer_pattern() {
    // TightVNC+TWM: 3 processes with a pty and sockets; checkpoint and
    // verify participants.
    let mut w = World::new(HwSpec::desktop(), 1, full_registry());
    let mut sim = Sim::new();
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    let spec = apps::desktop::spec_by_name("tightvnc+twm").expect("vnc");
    apps::desktop::launch_desktop(&mut w, &mut sim, Some(&s), NodeId(0), spec, 3);
    run_for(&mut w, &mut sim, Nanos::from_millis(40));
    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(stat.participants, 3, "vncserver + twm + xterm");
    // The session keeps serving updates after the checkpoint.
    run_for(&mut w, &mut sim, Nanos::from_millis(40));
    assert!(w.live_procs() >= 4); // 3 apps + coordinator
}

#[test]
fn runcms_profile_builds_the_documented_footprint() {
    let mut w = World::new(HwSpec::desktop(), 1, full_registry());
    let mut sim = Sim::new();
    let pid = w.spawn(
        &mut sim,
        NodeId(0),
        "runCMS",
        Box::new(apps::runcms::RunCms::new()),
        oskit::world::Pid(1),
        Default::default(),
    );
    // Let initialization finish (~35 s of simulated library loading).
    sim.run_until(&mut w, Nanos::from_secs(60));
    let p = &w.procs[&pid];
    let maps = w.proc_maps(pid).expect("maps");
    let lib_count = maps.matches(".so").count();
    assert!(lib_count >= 540, "libraries mapped: {lib_count}");
    let total = p.mem.total_bytes();
    assert!(
        (600 << 20..760 << 20).contains(&total),
        "footprint ≈ 680 MB, got {} MB",
        total >> 20
    );
}
