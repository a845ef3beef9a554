#!/usr/bin/env sh
# Run the integrity suite standalone: checksum envelope, attaching a
# scrubber to an engine (one per engine, pass budgets, across a replica
# resync), detection battery, quarantine gating, every repair strategy,
# and the offline `aeong verify` fsck.  Part of the default test run too; this
# entry point exists for quick iteration on the scrubber.
#
#   scripts/scrub_check.sh [extra pytest args...]
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH=src exec python -m pytest -m integrity -v "$@"
