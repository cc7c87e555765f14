"""Fixture: shared-state-mutation counterexamples (never executed)."""


def tamper(loop, bucket, stage, resources):
    loop.now_ns = 0.0  # expect: shared-state-mutation
    bucket.tokens -= 1.0  # expect: shared-state-mutation
    stage.busy_ns += 5.0  # expect: shared-state-mutation
    stage.name = "renamed"  # unlisted attr: clean
    resources.host_busy_ns += 5.0  # the ledger: test_stage_invariant's job


def shed(lane):
    # A shed op hands a token back: the bucket over-admits, and no
    # tested config combines a rate limit with shedding on one tenant.
    lane.metrics.shed += 1
    if lane.bucket is not None:
        lane.bucket.tokens += 1.0  # expect: shared-state-mutation
