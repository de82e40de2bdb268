#!/usr/bin/env sh
# deflake_stress.sh — hammer the timing-sensitive test surfaces under
# the race detector to prove the synchronization fixes hold: the
# stream backpressure/soak/journal tests, the serve admission/drain
# tests and the cross-mode findings differential, the shared analysis
# pool's Worker.Check table test, the concurrency hammers for frozen-graph reads and pooled
# per-app arena reuse, the graph Reset-vs-fresh differential, the
# longitudinal engine's CheckSafe parity and store-poisoning tests (the
# retry-exhaustion one races a 50 ms attempt deadline), and the
# distributed-tier lease/renewal/failover tests (including the
# report-carries-next-lease round-trip and hand-back tests, the
# live-set first-report-wins table and the stale-lease-id failover
# test) run COUNT times each
# (50 by default, override with COUNT=n or $1); the multi-process dist
# SIGKILL soak and the chaos suite (short subset) run COUNT/10 times.
# Any single failure fails the script.
#
#   scripts/deflake_stress.sh          # 50 iterations
#   COUNT=200 scripts/deflake_stress.sh
#   scripts/deflake_stress.sh 10       # quick pass
set -eu

COUNT="${1:-${COUNT:-50}}"
cd "$(dirname "$0")/.."

echo "deflake stress: ${COUNT}x -race over stream + serve timing-sensitive tests"

go test ./internal/stream/ -race -count="${COUNT}" \
    -run 'TestRunBackpressure|TestHeapSamplerPublishes|TestRunDrain|TestRunFirehose|TestRunResumeBitIdentical'

go test ./internal/serve/ -race -count="${COUNT}" -short \
    -run 'TestServeGracefulDrain|TestServeConcurrentClients|TestServeCheckHistory|TestCrossModeFindingsDifferential'

go test ./internal/eval/ -race -count="${COUNT}" -run 'TestPoolWorkerCheck'

go test ./internal/longi/ -race -count="${COUNT}" \
    -run 'TestCheckVersionMatchesCheckSafe|TestExhaustedRetriesNeverPoisonStore|TestPanickingStageNeverPoisonsStore'

go test ./internal/graphdb/ ./internal/core/ -race -count="${COUNT}" \
    -run 'TestFrozenConcurrentReads|TestResetMatchesFreshGraph|TestCheckSafeConcurrentArenaReuse'

# The distributed tier's timing-sensitive surfaces: lease expiry +
# reassignment + duplicate rejection, first-report-wins over the live
# set, the renewal heartbeat protocol (slow-app survival, late-renewal
# denial, sweep-clock latency), the next lease carried in a report
# response (one round trip per app, hand-back on stop), and standby
# promotion with stale lease ids.
go test ./internal/dist/ -race -count="${COUNT}" \
    -run 'TestLeaseExpiryReassignsAndDeduplicates|TestCoordinatorBitIdenticalToStreamRun|TestRenewalKeepsSlowAppAlive|TestNoRenewalReassignsSlowApp|TestLateRenewalCannotReviveExpiredLease|TestExpiryLatencyBounded|TestStandbyPromotionResumesBitIdentical|TestStaleLeaseIDCannotReleaseLiveLease|TestLiveSetFirstReportWins|TestCoordinatorStateFlat|TestReportCarriesNextLease|TestStoppingWorkerHandsBackCarriedLease'

# The multi-process hammers spawn child worker processes per scenario,
# so they get a smaller count: the SIGKILL soak and the randomized
# chaos suite (short subset: >=1 failover + >=1 renewal-drop each run).
DIST_SOAK_COUNT=$(( COUNT / 10 ))
[ "${DIST_SOAK_COUNT}" -lt 1 ] && DIST_SOAK_COUNT=1
go test ./internal/dist/ -race -count="${DIST_SOAK_COUNT}" \
    -run 'TestDistCrashSoakBitIdentical'
go test ./internal/dist/ -race -count="${DIST_SOAK_COUNT}" -short \
    -run 'TestDistChaosSuite'

echo "deflake stress: all ${COUNT} iterations passed"
