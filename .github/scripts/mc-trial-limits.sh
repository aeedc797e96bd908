#!/usr/bin/env bash
# Monte Carlo at 10^12 trials and at the trial limit, run from a fresh temp dir.
# A run is one multinomial draw, so its time does not grow with the trial
# count: 10^12 trials finish at once.  2**63 trials, past what numpy's
# multinomial takes, are refused with exit 2 and no file.  At 2**63 - 1
# trials of double emissions the kept pairs pass 2**63 and must still be
# counted exactly.
#
# Usage, from anywhere: bash .github/scripts/mc-trial-limits.sh
set -e
export PYTHONPATH="$(cd "$(dirname "$0")/../.." && pwd)/src"
cd "$(mktemp -d)"
timeout 20 python -m kerrpurify.cli stage1 --p1 0.1 --p2 0.01 --f0 0.8 --mode mc --trials 1000000000000
code=0
python -m kerrpurify.cli stage1 --p1 0.1 --p2 0.01 --f0 0.8 --mode mc --trials 9223372036854775808 --out run.json || code=$?
echo "--trials 9223372036854775808 exited $code"
test "$code" -eq 2
test -z "$(ls -A)"
timeout 20 python -m kerrpurify.cli stage1 --p1 0 --p2 1 --f0 1 --mode mc --trials 9223372036854775807 --seed 0 --out run.json
python - <<'EOF'
import json
run = json.load(open("run.json"))
trials, correct = run["trials"], run["counts"]["kept_correct"]
assert trials == 2**63 - 1 and sum(run["counts"].values()) == trials, run
assert run["extras"]["kept_pairs_per_event"] == 2 * correct / trials, run
EOF
