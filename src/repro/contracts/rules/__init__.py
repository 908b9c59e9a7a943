"""Rule modules; importing this package populates the rule registry."""

from repro.contracts.rules import (  # noqa: F401  (import-for-registration)
    batch_hooks,
    bench_keys,
    frozen_config,
    occ_discipline,
    registry_discipline,
    rng,
    telemetry_lock,
    wallclock,
)
