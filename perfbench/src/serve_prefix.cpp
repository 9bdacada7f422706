/**
 * @file
 * Workload `serve-prefix`: open-loop Poisson traffic at three fixed
 * rates into a timing-only gpt2-petite DfxServer (2 clusters x 4
 * cores, static placement, one scheduler thread per cluster) with
 * paged KV and prefix sharing. Three quarters of the prompts start
 * with one of two 96-token system prompts, a quarter are unique, so
 * the pager's prefix index, the server scheduler and the cycle-level
 * timing model carry the load.
 */
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>

#include "appliance/server.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

using namespace dfx;

// Workload constants. Rates and SLO limits are absolute, never
// fractions of a capacity measured from the code under test.
constexpr double kRatesRps[] = {60, 80, 120};
constexpr size_t kRequestsPerRung[] = {1000, 6000, 1000};
constexpr double kTtftLimitSeconds = 150e-3;
constexpr double kTpotLimitSeconds = 5e-3;
constexpr size_t kClusters = 2;
constexpr size_t kCores = 4;
constexpr size_t kKvContexts = 16;
constexpr size_t kBlockTokens = 16;
/** The block pool holds the HBM of this many unpaged contexts. */
constexpr size_t kPoolContexts = 4;
constexpr size_t kSystemTokens = 96;
constexpr size_t kSuffixTokens = 8;
constexpr size_t kOutputTokens = 16;
/** Set-up is timed over batches of server constructions, since one
 *  takes well under a millisecond. */
constexpr size_t kSetupBatches = 15;
constexpr size_t kServersPerBatch = 100;
constexpr double kDeadlineHostSeconds = 120;

/** Everything one rung's serve reports. */
struct RungResult
{
    double rate = 0.0;
    ServerStats stats;
    HostTime host;  ///< of its serve()
    perf::HostStepProfile profile;  ///< summed over clusters
    // Pager counters, summed (peaks: max) over clusters.
    size_t prefixLookups = 0;
    size_t prefixHits = 0;
    uint64_t sharedTokens = 0;
    uint64_t promptTokensPaged = 0;
    size_t peakMappedBlocks = 0;
    size_t peakActiveContexts = 0;

    std::string
    detail() const
    {
        double umax = 0.0;
        for (const ClusterEpochStats &c : stats.clusters)
            umax = std::max(umax, c.utilization);
        return "utilization max " + std::to_string(umax) + ", prefix hits " +
               std::to_string(prefixHits) + " of " +
               std::to_string(prefixLookups) + " lookups";
    }
};

DfxSystemConfig
serveConfig()
{
    DfxSystemConfig cfg;
    cfg.model = petiteModel();
    cfg.nCores = kCores;
    cfg.functional = false;
    cfg.nThreads = 1;
    cfg.kvContexts = kKvContexts;
    cfg.pagedKv.enabled = true;
    cfg.pagedKv.blockTokens = kBlockTokens;
    cfg.pagedKv.physBlocks =
        kPoolContexts * cfg.model.maxSeq / cfg.pagedKv.blockTokens;
    cfg.pagedKv.prefixSharing = true;
    return cfg;
}

/**
 * Requests of one rung: conditioned-Poisson arrivals, and a type per
 * request from a shuffled deck with exact shares (3/8 system prompt
 * A, 3/8 system prompt B, 1/4 unique), independent of the arrival
 * draws and of placement.
 */
std::vector<ServerRequest>
rungRequests(uint64_t seed, size_t rung,
             const std::vector<std::vector<int32_t>> &system, size_t vocab)
{
    Prng arrivals_rng(seed, 100 + rung), type_rng(seed, 200 + rung),
        token_rng(seed, 300 + rung);
    const size_t n = kRequestsPerRung[rung];
    const std::vector<double> arrivals =
        poissonArrivals(arrivals_rng, n, kRatesRps[rung]);
    std::vector<int> type(n, 2);  // 0, 1: system prompt; 2: unique
    const size_t shared = n * 3 / 8;
    std::fill(type.begin(), type.begin() + shared, 0);
    std::fill(type.begin() + shared, type.begin() + 2 * shared, 1);
    shuffle(type_rng, type);

    const size_t len = system[0].size() + kSuffixTokens;
    std::vector<ServerRequest> reqs(n);
    for (size_t i = 0; i < n; ++i) {
        ServerRequest &r = reqs[i];
        if (type[i] == 2) {
            r.prompt = randomTokens(token_rng, len, vocab);
        } else {
            r.prompt = system[static_cast<size_t>(type[i])];
            const std::vector<int32_t> tail =
                randomTokens(token_rng, kSuffixTokens, vocab);
            r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
        }
        r.nOut = kOutputTokens;
        r.arrivalSeconds = arrivals[i];
    }
    return reqs;
}

}  // namespace

void
runServePrefix(Context &ctx)
{
    Record &rec = ctx.record;
    const DfxSystemConfig cfg = serveConfig();
    const size_t n_rungs = std::size(kRatesRps);
    ServerOptions sopt;
    sopt.drainDeadlineHostSeconds = kDeadlineHostSeconds;

    Prng system_rng(ctx.seed, 3);
    std::vector<std::vector<int32_t>> system;
    for (int s = 0; s < 2; ++s)
        system.push_back(
            randomTokens(system_rng, kSystemTokens, cfg.model.vocabSize));
    std::vector<std::vector<ServerRequest>> rung_reqs;
    for (size_t r = 0; r < n_rungs; ++r)
        rung_reqs.push_back(
            rungRequests(ctx.seed, r, system, cfg.model.vocabSize));

    // One pass: a fresh server per rung, then serve().
    auto pass = [&]() {
        std::vector<RungResult> out;
        for (size_t r = 0; r < n_rungs; ++r) {
            PERFBENCH_SPAN(ctx, "rung", "appliance.server",
                           static_cast<int64_t>(r));
            std::unique_ptr<DfxServer> server;
            {
                PERFBENCH_SPAN(ctx, "construct_server", "appliance.server",
                               -1);
                server = std::make_unique<DfxServer>(cfg, kClusters, sopt);
            }
            RungResult res;
            res.rate = kRatesRps[r];
            res.host = ctx.probe.time([&] {
                PERFBENCH_SPAN(ctx, "serve", "appliance.server", -1);
                res.stats = server->serve(rung_reqs[r]);
            });
            for (size_t c = 0; c < server->nClusters(); ++c) {
                DfxCluster &cl = server->cluster(c).cluster();
                res.profile += cl.hostProfile();
                const KvPager *pg = cl.pager();
                res.prefixLookups += pg->prefixLookups();
                res.prefixHits += pg->prefixHits();
                res.sharedTokens += pg->sharedTokensTotal();
                res.promptTokensPaged += pg->promptTokensTotal();
                res.peakMappedBlocks =
                    std::max(res.peakMappedBlocks, pg->peakMappedBlocks());
                res.peakActiveContexts = std::max(res.peakActiveContexts,
                                                  pg->peakActiveContexts());
            }
            out.push_back(std::move(res));
        }
        return out;
    };
    ServePasses<RungResult> passes(rung_reqs);

    std::vector<HostTime> setups;
    if (!ctx.trace) {
        for (size_t b = 0; b < kSetupBatches; ++b) {
            HostTime t = ctx.probe.time([&] {
                for (size_t i = 0; i < kServersPerBatch; ++i)
                    DfxServer server(cfg, kClusters, sopt);
            });
            t.seconds /= kServersPerBatch;
            t.normSeconds /= kServersPerBatch;
            setups.push_back(t);
        }
        const double t0 = hostNow();
        do {
            passes.check(rec, pass());
        } while (hostNow() - t0 < ctx.seconds);
    } else {
        double t0 = hostNow();
        passes.check(rec, pass());
        const double untraced = hostNow() - t0;
        ctx.tracer.start();
        t0 = hostNow();
        const std::vector<RungResult> tp = passes.check(rec, pass());
        const double traced = hostNow() - t0;
        ctx.tracer.stop();
        ctx.tracer.write(ctx.outDir + "/spans.json");

        // Library time inside serve() comes from the clusters' host
        // profiles (thread seconds on the two scheduler threads).
        perf::HostStepProfile hp;
        for (const RungResult &res : tp)
            hp += res.profile;
        const double steps = static_cast<double>(hp.steps);
        rec.layer("isa.codegen_us_per_step", 1e6 * hp.codegenSeconds / steps,
                  "us", "H", hp.steps);
        rec.layer("isa.patch_us_per_step", 1e6 * hp.patchSeconds / steps,
                  "us", "H", hp.steps);
        rec.layer("isa.encode_us_per_step", 1e6 * hp.encodeSeconds / steps,
                  "us", "H", hp.steps);
        rec.layer("isa.cache_hit_ratio", hp.cacheHitRate(), "ratio", "H",
                  hp.cacheHits + hp.cacheMisses);
        // Pager counters at the nominal rung, and the prefix-index
        // hit and lookup rates again at the high rung, where pool
        // pressure makes the index thrash.
        const RungResult &nom = tp[passes.nominal()];
        auto pager = [&](const RungResult &res, const std::string &suffix) {
            const double admitted =
                static_cast<double>(res.stats.completedRequests);
            rec.layer("memory.prefix_hit_ratio" + suffix,
                      res.prefixHits / admitted, "ratio", "M",
                      res.stats.completedRequests);
            rec.layer("memory.lookups_per_admit" + suffix,
                      res.prefixLookups / admitted, "ratio", "M",
                      res.stats.completedRequests);
        };
        pager(nom, "");
        pager(tp.back(), ".high");
        rec.layer("memory.shared_token_ratio",
                  static_cast<double>(nom.sharedTokens) /
                      static_cast<double>(nom.promptTokensPaged),
                  "ratio", "M", nom.stats.completedRequests);
        rec.layer("memory.peak_mapped_blocks",
                  static_cast<double>(nom.peakMappedBlocks), "count", "M", 1);
        rec.layer("memory.peak_active_contexts",
                  static_cast<double>(nom.peakActiveContexts), "count", "M",
                  1);
        std::vector<double> qdelay;
        for (const RequestResult &r : nom.stats.results)
            if (r.outcome == RequestOutcome::Completed)
                qdelay.push_back(r.queueDelaySeconds());
        rec.layer("server.queue_delay_p50_ms", 1e3 * quantile(qdelay, 0.5),
                  "ms", "M", qdelay.size());
        rec.layer("server.queue_delay_p99_ms", 1e3 * quantile(qdelay, 0.99),
                  "ms", "M", qdelay.size());
        double umin = 1.0, umax = 0.0;
        for (const ClusterEpochStats &c : nom.stats.clusters) {
            umin = std::min(umin, c.utilization);
            umax = std::max(umax, c.utilization);
        }
        rec.layer("server.utilization_min", umin, "ratio", "M",
                  nom.stats.clusters.size());
        rec.layer("server.utilization_max", umax, "ratio", "M",
                  nom.stats.clusters.size());
        ServePasses<RungResult>::reportServeSeconds(rec, "server", tp);
        reportReconciliation(
            ctx,
            {{"isa", hp.codegenSeconds + hp.patchSeconds + hp.encodeSeconds},
             {"core", hp.executeSeconds}},
            "appliance.server", static_cast<double>(kClusters), traced,
            untraced);
    }

    passes.report(ctx, kTtftLimitSeconds, kTpotLimitSeconds, setups);
}

}  // namespace perfbench
