//! Schedule digests: reproducible for a seed, different across seeds,
//! pinned at the default seed, and a mismatch fails the op instead of
//! stopping the run.

use benchmark::spec::pinned_digests;
use benchmark::workloads::{Checker, Workload, DEFAULT_SEED};

const W: Workload = Workload::RossObserved;

#[test]
fn same_seed_replays_agree_and_other_seeds_differ() {
    let a = W.setup(11).unwrap();
    let b = W.setup(11).unwrap();
    let c = W.setup(12).unwrap();
    let digest = |inputs, i| W.op(inputs, i, false).digest();
    assert_eq!(digest(&a, 0), digest(&b, 0));
    assert_eq!(
        digest(&a, 0),
        digest(&a, 0),
        "replaying one input is deterministic"
    );
    assert_ne!(digest(&a, 0), digest(&c, 0));
    assert_ne!(digest(&a, 0), digest(&a, 1), "replicas are distinct inputs");
}

#[test]
fn the_default_seed_reproduces_its_pin() {
    let inputs = W.setup(DEFAULT_SEED).unwrap();
    let pins = pinned_digests(W.name()).unwrap();
    let mut checker = Checker::new(W, DEFAULT_SEED, inputs.replicas.len()).unwrap();
    let op = W.op(&inputs, 3, false);
    assert_eq!(op.digest(), pins[3]);
    checker.check(&op).unwrap();
}

#[test]
fn a_digest_that_moves_fails_the_op() {
    let inputs = W.setup(21).unwrap();
    let other = W.setup(22).unwrap();
    let mut checker = Checker::new(W, 21, inputs.replicas.len()).unwrap();
    checker.check(&W.op(&inputs, 0, false)).unwrap();
    // Same replica slot, different schedule: the checker reports it.
    assert!(checker.check(&W.op(&other, 0, false)).is_err());
    checker.check(&W.op(&inputs, 0, false)).unwrap();
}
