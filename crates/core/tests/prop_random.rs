//! The strongest transparency property we can state: for *any* checkpoint
//! instant and any kill delay, kill + restart must produce exactly the
//! answer of an uninterrupted run. A deterministic RNG drives the instant
//! across the protocol's life (wiring, steady state, mid-drain of a
//! previous generation's leftovers, near completion).
//!
//! The event budget is shared tooling: `common::run_budget()` reads
//! `DMTCP_TEST_EV_BUDGET` (default 8M events). When a run exhausts it we
//! say so explicitly — "budget exhausted" means the simulation was still
//! making progress and the budget may simply be too small for the
//! workload, which is a different failure from a deadlock (event queue
//! drained with the result file never written).

mod common;

use common::*;
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use oskit::world::{NodeId, OsSim, World};
use simkit::{DetRng, Nanos, RunOutcome};

/// Drive the sim to quiescence within the configured budget, then return
/// the result file — distinguishing "budget exhausted" (raise
/// `DMTCP_TEST_EV_BUDGET`) from a genuine deadlock or missing result.
fn finish(w: &mut World, sim: &mut OsSim, what: &str) -> String {
    let budget = run_budget();
    match sim.run_budgeted(w, budget) {
        RunOutcome::BudgetExhausted => panic!(
            "{what}: budget exhausted after {budget} events \
             (virtual time {:?}) — still progressing, not deadlocked; \
             raise DMTCP_TEST_EV_BUDGET to give it more room",
            sim.now()
        ),
        RunOutcome::Quiescent | RunOutcome::Halted => shared_result(w, "/shared/client_result")
            .unwrap_or_else(|| {
                panic!(
                    "{what}: deadlock — event queue drained at virtual time {:?} \
                     with no /shared/client_result written",
                    sim.now()
                )
            }),
    }
}

fn reference(rounds: u64) -> String {
    let (mut w, mut sim) = cluster(2);
    use std::collections::BTreeMap;
    w.spawn(
        &mut sim,
        NodeId(1),
        "server",
        Box::new(EchoPlusOne::new(9000)),
        oskit::world::Pid(1),
        BTreeMap::new(),
    );
    w.spawn(
        &mut sim,
        NodeId(0),
        "client",
        Box::new(ChainClient::new("node01", 9000, rounds)),
        oskit::world::Pid(1),
        BTreeMap::new(),
    );
    finish(&mut w, &mut sim, "reference run")
}

fn ckpt_kill_restart_at(rounds: u64, ckpt_at_ms: u64, kill_delay_ms: u64, merge: bool) -> String {
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "server",
        Box::new(EchoPlusOne::new(9000)),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "client",
        Box::new(ChainClient::new("node01", 9000, rounds)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(ckpt_at_ms));
    let stat = s
        .checkpoint_and_wait(&mut w, &mut sim, run_budget())
        .expect_ckpt();
    run_for(&mut w, &mut sim, Nanos::from_millis(kill_delay_ms));
    s.kill_computation(&mut w, &mut sim);
    let _ = w.shared_fs.remove("/shared/client_result");
    let mut plan = RestartPlan::builder().generation(stat.gen);
    if merge {
        plan = plan.topology([NodeId(0)]);
    }
    plan.build()
        .execute(&s, &mut w, &mut sim)
        .expect("restart plan");
    s.wait_restart_done(&mut w, &mut sim, stat.gen, run_budget());
    finish(&mut w, &mut sim, "post-restart run")
}

#[test]
fn any_checkpoint_instant_is_transparent() {
    // 400 rounds ≈ 80 ms of virtual runtime, so the instant sweeps
    // wiring, steady state, and near-completion.
    let rounds = 400;
    let expect = reference(rounds);
    let mut rng = DetRng::seed_from_u64(0x7A2A_5EED);
    for case in 0..12 {
        let ckpt_at_ms = rng.range(3, 68);
        let kill_delay_ms = rng.below(25);
        let merge = rng.chance(0.5);
        let got = ckpt_kill_restart_at(rounds, ckpt_at_ms, kill_delay_ms, merge);
        assert_eq!(
            got, expect,
            "case {case}: ckpt_at {ckpt_at_ms}ms kill_delay {kill_delay_ms}ms merge {merge}"
        );
    }
}
