#include "checks.hh"

#include <cmath>
#include <sstream>
#include <unordered_set>

namespace e2e {

PathAudit::PathAudit(const laoram::oram::TreeGeometry &geom)
    : leafBins(kLeafBins, 0), geom(geom),
      firstLeafNode((std::uint64_t{1} << geom.leafLevel()) - 1)
{
}

void
PathAudit::onSlot(std::uint64_t slot, bool isWrite)
{
    if (isWrite) {
        closeBurst();
        return;
    }
    ++burst[geom.slotNode(slot)];
}

void
PathAudit::finish()
{
    closeBurst();
}

void
PathAudit::closeBurst()
{
    if (burst.empty())
        return;
    ++bursts;
    // The union of the paths of every leaf bucket in the burst, built
    // by walking each leaf to the root with the heap numbering
    // (parent of node n is (n - 1) / 2).
    std::unordered_set<std::uint64_t> paths;
    bool ok = true;
    for (const auto &[node, slots] : burst) {
        if (node < firstLeafNode)
            continue;
        const std::uint64_t leaf = node - firstLeafNode;
        ++leafReads;
        ++leafBins[leaf * kLeafBins / geom.numLeaves()];
        std::uint64_t n = node;
        while (paths.insert(n).second && n != 0)
            n = (n - 1) / 2;
    }
    if (paths.size() != burst.size())
        ok = false;
    for (const auto &[node, slots] : burst) {
        if (paths.count(node) == 0
            || slots != geom.bucketSize(geom.nodeLevel(node)))
            ok = false;
    }
    if (!ok)
        ++badBursts;
    burst.clear();
}

ShardAudits::ShardAudits(laoram::core::ShardedLaoram &engine)
    : engine(engine)
{
    for (std::uint32_t s = 0; s < engine.numShards(); ++s) {
        laoram::core::Laoram &e = engine.shard(s);
        audits.push_back(std::make_unique<PathAudit>(e.geometry()));
        PathAudit *a = audits.back().get();
        e.storageForTest().setAccessSink(
            [a](std::uint64_t slot, bool w) { a->onSlot(slot, w); });
    }
}

ShardAudits::~ShardAudits()
{
    detach();
}

void
ShardAudits::detach()
{
    for (std::uint32_t s = 0; s < audits.size(); ++s)
        engine.shard(s).storageForTest().setAccessSink(nullptr);
}

void
ShardAudits::finish(Result &res)
{
    detach();
    for (std::uint32_t s = 0; s < audits.size(); ++s) {
        audits[s]->finish();
        checkPathAudit(*audits[s], res,
                       "shard " + std::to_string(s) + " warm-up");
    }
}

double
chiSquareUniform(const std::vector<std::uint64_t> &bins)
{
    double total = 0.0;
    for (const std::uint64_t b : bins)
        total += static_cast<double>(b);
    if (bins.empty() || total == 0.0)
        return 0.0;
    const double expect = total / static_cast<double>(bins.size());
    double chi = 0.0;
    for (const std::uint64_t b : bins) {
        const double d = static_cast<double>(b) - expect;
        chi += d * d / expect;
    }
    return chi;
}

double
chiSquareCritical(double dof)
{
    constexpr double z = 4.7534; // one-sided normal quantile, p = 1e-6
    const double a = 2.0 / (9.0 * dof);
    const double t = 1.0 - a + z * std::sqrt(a);
    return dof * t * t * t;
}

void
checkPathAudit(const PathAudit &audit, Result &res,
               const std::string &label)
{
    std::ostringstream what;
    what << label << ": " << audit.badBursts << " of " << audit.bursts
         << " read bursts are not whole path unions with full buckets";
    res.check(audit.bursts > 0 && audit.badBursts == 0, what.str());

    const double chi = chiSquareUniform(audit.leafBins);
    const double crit = chiSquareCritical(
        static_cast<double>(audit.leafBins.size() - 1));
    std::ostringstream uni;
    uni << label << ": leaves of " << audit.leafReads
        << " path reads fail the uniformity test (chi2 " << chi
        << " > " << crit << ")";
    // Below ~20 expected reads per bin the chi-square approximation
    // is unreliable, so too few reads is itself a failed check.
    res.check(audit.leafReads >= 20 * audit.leafBins.size()
                  && chi <= crit,
              uni.str());
}

void
checkPathReadsPerOp(double pathReadsPerOp, std::uint64_t superblock,
                    Result &res, const std::string &label)
{
    std::ostringstream what;
    what << label << ": path reads per access " << pathReadsPerOp
         << " outside [1/" << superblock << ", 1]";
    res.check(pathReadsPerOp >= 1.0 / static_cast<double>(superblock)
                  && pathReadsPerOp <= 1.0,
              what.str());
}

} // namespace e2e
