//! The paper's marquee use case (§1, item 6): run the CPU-intensive phase
//! of a computation on a cluster, checkpoint it, and restart *everything on
//! a single laptop* for interactive analysis at home or on a plane.
//!
//! A 4-node MPI job (conjugate gradient under simulated OpenMPI, with its
//! OpenRTE daemons) is checkpointed mid-solve; the cluster then vanishes;
//! the whole computation — 8 ranks, daemons, console, sockets and all —
//! is packed down onto a 1-node "laptop" world by a [`RestartPlan`] and
//! finishes with a residual bit-identical to an uninterrupted run.
//!
//! Run with: `cargo run --release --example migrate_to_laptop`

use apps::nas::{nas_factory, NasKernel};
use apps::registry::full_registry;
use apps::result_path;
use dmtcp::session::{run_for, transplant_storage};
use dmtcp::{ExpectCkpt, Options, Packing, RestartPlan, Session};
use oskit::world::NodeId;
use oskit::{HwSpec, World};
use simkit::{Nanos, Sim};
use simmpi::launch::{mpirun, Flavor, Launcher, MpiJob};

const EV: u64 = 100_000_000;

fn job() -> MpiJob {
    MpiJob {
        flavor: Flavor::OpenMpi,
        nodes: (0..4).map(NodeId).collect(),
        procs_per_node: 2,
        base_port: 30_000,
    }
}

/// Reference: the same 8-rank job with no DMTCP and no migration.
fn reference_residual() -> String {
    let mut w = World::new(HwSpec::cluster(), 4, full_registry());
    let mut sim = Sim::new();
    mpirun(
        &mut w,
        &mut sim,
        Launcher::Raw,
        &job(),
        nas_factory(NasKernel::Cg, 400, 2_000),
    );
    assert!(sim.run_bounded(&mut w, EV), "reference run deadlocked");
    String::from_utf8(w.shared_fs.read_all(&result_path("nas-CG")).expect("ran")).expect("utf8")
}

fn main() {
    let reference = reference_residual();
    let opts = Options::builder().ckpt_dir("/shared/ckpt").build();

    // ---- Phase 1: the cluster ----
    let mut cluster = World::new(HwSpec::cluster(), 4, full_registry());
    let mut sim = Sim::new();
    let session = Session::start(&mut cluster, &mut sim, opts.clone());
    mpirun(
        &mut cluster,
        &mut sim,
        Launcher::Dmtcp(&session),
        &job(),
        nas_factory(NasKernel::Cg, 400, 2_000),
    );
    println!("cluster: 8-rank CG job running under simulated OpenMPI + DMTCP");
    run_for(&mut cluster, &mut sim, Nanos::from_millis(150));
    let stat = session
        .checkpoint_and_wait(&mut cluster, &mut sim, EV)
        .expect_ckpt();
    println!(
        "cluster: checkpointed {} processes (ranks + orteds + orterun) in {:.2}s",
        stat.participants,
        stat.checkpoint_time().expect("complete").as_secs_f64()
    );

    // ---- Phase 2: the laptop ----
    let mut laptop = World::new(HwSpec::desktop(), 1, full_registry());
    let mut sim2 = Sim::new();
    transplant_storage(&cluster, &mut laptop); // only the storage survives
    drop(cluster);
    drop(sim);
    println!("laptop: cluster gone; images carried over on shared storage");

    // Pack the whole 4-node generation onto the single laptop node: the
    // planner groups fork-related processes into colocation units and
    // fills node 0 with all of them.
    let session2 = Session::start(&mut laptop, &mut sim2, opts);
    let outcome = RestartPlan::builder()
        .generation(stat.gen)
        .topology([NodeId(0)])
        .pack(Packing::Fill)
        .build()
        .execute(&session2, &mut laptop, &mut sim2)
        .expect("pack-down restart onto the laptop");
    session2.wait_restart_done(&mut laptop, &mut sim2, stat.gen, EV);
    let restored: usize = outcome.placement.iter().map(|(_, v)| v.len()).sum();
    println!("laptop: all {restored} processes restored on one machine");
    assert_eq!(
        restored as u32, stat.participants,
        "every checkpointed process was placed"
    );

    assert!(sim2.run_bounded(&mut laptop, EV), "laptop run deadlocked");
    let residual = String::from_utf8(
        laptop
            .shared_fs
            .read_all(&result_path("nas-CG"))
            .expect("CG finished"),
    )
    .expect("utf8");
    println!("laptop: CG completed; final residual = {residual}");
    assert_eq!(
        residual, reference,
        "packed-down run must be bit-identical to an uninterrupted one"
    );
    println!("OK — cluster job finished on a laptop, bit-identical to an uninterrupted run.");
}
