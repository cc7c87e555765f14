"""Fixture: shared-state-mutation counterexamples (never executed)."""


def tamper(loop, bucket, stage, resources):
    loop.now_ns = 0.0  # expect: shared-state-mutation
    bucket.tokens -= 1.0  # expect: shared-state-mutation
    stage.busy_ns += 5.0  # expect: shared-state-mutation
    resources.host_busy_ns += 5.0  # expect: shared-state-mutation
    stage.name = "renamed"  # unlisted attr on unkinded receiver: clean
