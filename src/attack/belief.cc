#include "belief.hh"

#include <vector>

#include "support/hash.hh"

namespace hipstr
{
namespace attack
{

BeliefState::BeliefState(uint32_t secretSpace, double migrationProb)
    : _space(secretSpace == 0 ? 1 : secretSpace),
      _migrationProb(migrationProb)
{
}

TargetBelief &
BeliefState::target(uint32_t shard, uint32_t pid)
{
    return _targets[Key{ shard, pid }];
}

const TargetBelief *
BeliefState::find(uint32_t shard, uint32_t pid) const
{
    auto it = _targets.find(Key{ shard, pid });
    return it == _targets.end() ? nullptr : &it->second;
}

IsaKind
BeliefState::inferStagingIsa(IsaKind completionIsa) const
{
    return _migrationProb > 0.5 ? otherIsa(completionIsa)
                                : completionIsa;
}

void
BeliefState::noteServiced(uint32_t shard, uint32_t pid,
                          uint64_t round)
{
    TargetBelief &b = target(shard, pid);
    ++b.probesServed;

    // First response after an observed crash closes the recovery
    // window: the gap is the infirmary backoff (or quarantine) as an
    // external client measures it.
    if (b.awaitingRecovery) {
        b.respawnGapRounds = round - b.lastCrashRound;
        b.awaitingRecovery = false;
        ++_stats.gapsLearned;
    }
}

void
BeliefState::noteProbeResult(uint32_t shard, uint32_t pid,
                             uint32_t guess, IsaKind guessIsa,
                             uint64_t sentRound, bool leaked,
                             IsaKind servedIsa)
{
    TargetBelief &b = target(shard, pid);
    // A crash observed at or after the send re-randomized the secret
    // mid-flight: the result proves nothing about the current one.
    const bool stale =
        b.crashEpoch > 0 && b.lastCrashRound >= sentRound;

    if (leaked) {
        ++_stats.isaLeaksSeen;
        // The leak exposes the completion ISA directly; keep the
        // posterior soft so one mis-modeled flip cannot wedge it.
        b.pRisc = servedIsa == IsaKind::Risc ? 0.85 : 0.15;

        // The tested guess is attributable only when the payload's
        // assumed ISA matches the inferred staging ISA — otherwise
        // the response proves nothing about the secret value.
        if (!stale && guessIsa == inferStagingIsa(servedIsa)) {
            if (b.excluded.insert(guess).second)
                ++_stats.exclusionsLearned;
        }
    }
}

void
BeliefState::noteCrash(uint32_t shard, uint32_t pid, uint64_t round)
{
    TargetBelief &b = target(shard, pid);
    ++b.crashEpoch;
    b.lastCrashRound = round;
    b.awaitingRecovery = true;
    // Respawn re-randomizes: everything learned about the secret is
    // stale. Placement is unknown again too (the respawned worker
    // boots on its start ISA, which the attacker does not track).
    if (!b.excluded.empty())
        ++_stats.epochResets;
    b.excluded.clear();
    b.cursor = 0;
    b.pRisc = 0.5;
}

uint32_t
BeliefState::nextGuess(uint32_t shard, uint32_t pid)
{
    TargetBelief &b = target(shard, pid);
    if (b.excluded.size() >= _space) {
        // Every value "disproven": at least one exclusion was a
        // mis-attributed staging ISA. Drop them and re-sweep.
        b.excluded.clear();
        b.cursor = 0;
        ++_stats.sweepRestarts;
    }
    for (uint32_t i = 0; i < _space; ++i) {
        uint32_t g = (b.cursor + i) % _space;
        if (b.excluded.find(g) == b.excluded.end()) {
            b.cursor = (g + 1) % _space;
            return g;
        }
    }
    return b.cursor % _space; // unreachable; sweep above always hits
}

IsaKind
BeliefState::predictedStagingIsa(uint32_t shard, uint32_t pid) const
{
    const TargetBelief *b = find(shard, pid);
    double p_risc = b != nullptr ? b->pRisc : 0.5;
    // Migration happens *during* service — after staging — and only
    // security events trigger it, so a worker sits exactly where its
    // last leaked completion left it until it serves another probe.
    // The completion-ISA posterior therefore predicts the next
    // staging position directly, with no modeled flip.
    return p_risc >= 0.5 ? IsaKind::Risc : IsaKind::Cisc;
}

uint32_t
BeliefState::weakestShard(uint32_t shards) const
{
    std::vector<uint64_t> crashes(shards == 0 ? 1 : shards, 0);
    for (const auto &kv : _targets) {
        if (kv.first.shard < crashes.size())
            crashes[kv.first.shard] += kv.second.crashEpoch;
    }
    uint32_t best = 0;
    for (uint32_t k = 1; k < crashes.size(); ++k) {
        if (crashes[k] > crashes[best])
            best = k;
    }
    return best;
}

uint32_t
BeliefState::mostExcludedWorker(uint32_t shard) const
{
    uint32_t best = 0;
    size_t bestExcl = 0;
    bool found = false;
    for (const auto &kv : _targets) {
        if (kv.first.shard != shard)
            continue;
        // Map order is (shard, pid) ascending, so strict > keeps the
        // lowest pid on ties.
        if (!found || kv.second.excluded.size() > bestExcl) {
            best = kv.first.pid;
            bestExcl = kv.second.excluded.size();
            found = true;
        }
    }
    return best;
}

uint64_t
BeliefState::signature() const
{
    uint64_t h = kFnvBasis;
    fold64(h, _space);
    for (const auto &kv : _targets) {
        const TargetBelief &b = kv.second;
        fold64(h, kv.first.shard);
        fold64(h, kv.first.pid);
        fold64(h, uint64_t(b.pRisc * 1024));
        fold64(h, b.crashEpoch);
        fold64(h, b.respawnGapRounds);
        fold64(h, b.excluded.size());
        for (uint32_t g : b.excluded)
            fold64(h, g);
        fold64(h, b.probesServed);
    }
    fold64(h, _stats.exclusionsLearned);
    fold64(h, _stats.epochResets);
    fold64(h, _stats.isaLeaksSeen);
    fold64(h, _stats.sweepRestarts);
    return h;
}

} // namespace attack
} // namespace hipstr
