//! Use case 4 (§1): debugging long-running jobs by replaying from a
//! checkpoint. A deterministic computation is checkpointed just before a
//! "bug" manifests; the developer then restarts from that image repeatedly
//! — each replay reproduces the identical pre-crash state, shrinking the
//! debug-recompile cycle.
//!
//! Run with: `cargo run --release --example debug_replay`

use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, World};
use oskit::{HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap};

/// A long-running job that corrupts its state at iteration 700 ("the bug")
/// and would crash at 750.
struct Buggy {
    pc: u8,
    iter: u64,
    state: u64,
}
simkit::impl_snap!(struct Buggy { pc, iter, state });

impl Program for Buggy {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => {
                self.pc = 1;
                Step::Yield
            }
            1 => {
                self.iter += 1;
                self.state = self
                    .state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(self.iter);
                // Record a heartbeat so the "developer" can see progress.
                if self.iter.is_multiple_of(100) {
                    let fd = k.open("/shared/heartbeat", true).expect("hb");
                    k.write(fd, format!("{}:{}", self.iter, self.state).as_bytes())
                        .expect("w");
                }
                assert!(self.iter < 750, "BUG: state corrupted at iteration 750");
                Step::Compute(1_000_000) // 1 ms per iteration
            }
            _ => unreachable!(),
        }
    }
    fn tag(&self) -> &'static str {
        "buggy"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

fn main() {
    let mut reg = Registry::new();
    reg.register_snap::<Buggy>("buggy");
    let mut w = World::new(HwSpec::desktop(), 1, reg);
    let mut sim = Sim::new();
    let session = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    session.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "simulation",
        Box::new(Buggy {
            pc: 0,
            iter: 0,
            state: 1,
        }),
    );

    // Checkpoint just before the bug (iteration ≈ 690 of 750).
    run_for(&mut w, &mut sim, Nanos::from_millis(690));
    let stat = session
        .checkpoint_and_wait(&mut w, &mut sim, 20_000_000)
        .expect_ckpt();
    println!("checkpoint taken just before the crash (gen {})", stat.gen);

    // Replay from the image three times; each run reproduces the same
    // pre-crash heartbeat.
    let mut observed = Vec::new();
    for attempt in 1..=3 {
        session.kill_computation(&mut w, &mut sim);
        // Clear the (append-mode) heartbeat log so each replay's output is
        // compared on its own.
        let _ = w.shared_fs.remove("/shared/heartbeat");
        RestartPlan::from_generation(&w, session.opts.coord_port, stat.gen)
            .expect("generation record written")
            .execute(&session, &mut w, &mut sim)
            .expect("replay restart");
        session.wait_restart_done(&mut w, &mut sim, stat.gen, 20_000_000);
        // Run up to (but not past) the crash, inspecting state.
        run_for(&mut w, &mut sim, Nanos::from_millis(40));
        let hb = String::from_utf8(w.shared_fs.read_all("/shared/heartbeat").expect("hb"))
            .expect("utf8");
        println!("replay {attempt}: state at last heartbeat = {hb}");
        observed.push(hb);
    }
    assert!(
        observed.windows(2).all(|p| p[0] == p[1]),
        "replays diverged: {observed:?}"
    );
    println!("OK — every replay reproduces the identical pre-bug state.");
}
