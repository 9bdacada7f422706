/**
 * @file
 * Workload `fleet-failover`: open-loop Poisson traffic at three fixed
 * rates into a calibrated DfxFleet — 2 prefill + 2 decode nodes of 2
 * clusters each, least-loaded routing, SLO shedding armed — with
 * decode node 3 fail-stopping a third of the way through the arrival
 * horizon. The only load is the fleet's discrete-event loop (event
 * queue, router, KV handoff, failover, shedding); no datapath runs
 * after calibration.
 */
#include <algorithm>
#include <iterator>
#include <string>

#include "appliance/fleet.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

using namespace dfx;

// Workload constants. Rates and SLO limits are absolute, never
// fractions of a capacity measured from the code under test.
constexpr double kRatesRps[] = {500, 600, 900};
/** The nominal rung has the most requests, for a steadier p99. */
constexpr size_t kRequestsPerRung[] = {15000, 30000, 15000};
constexpr double kTtftLimitSeconds = 100e-3;
constexpr double kTpotLimitSeconds = 5e-3;
/** Admission sheds waiters projected past this TTFT. */
constexpr double kSloTtftBudgetSeconds = 100e-3;
constexpr size_t kPromptTokens = 24;
constexpr size_t kOutputTokens = 16;
constexpr size_t kCores = 4;
constexpr size_t kKvContexts = 8;
constexpr size_t kClustersPerNode = 2;
/** Decode node that fail-stops a third of the way through a rung. */
constexpr size_t kFailingNode = 3;
constexpr size_t kSetupRepeats = 9;
constexpr double kDeadlineHostSeconds = 120;

struct RungResult
{
    double rate = 0.0;
    FleetStats stats;
    HostTime host;  ///< of its serve()

    std::string
    detail() const
    {
        return std::to_string(stats.eventsProcessed) + " events";
    }
};

bool
sameModel(const RoundCostModel &a, const RoundCostModel &b)
{
    return a.alpha == b.alpha && a.beta == b.beta &&
           a.perTokenKvBytes == b.perTokenKvBytes &&
           a.blockTokens == b.blockTokens;
}

}  // namespace

void
runFleetFailover(Context &ctx)
{
    Record &rec = ctx.record;
    const size_t n_rungs = std::size(kRatesRps);

    DfxSystemConfig cfg;
    cfg.model = petiteModel();
    cfg.nCores = kCores;
    cfg.functional = false;
    cfg.kvContexts = kKvContexts;

    FleetTopology topo;
    topo.nNodes = 4;
    topo.clustersPerNode = kClustersPerNode;
    topo.roles = {FleetNodeRole::Prefill, FleetNodeRole::Prefill,
                  FleetNodeRole::Decode, FleetNodeRole::Decode};

    std::vector<std::vector<ServerRequest>> rung_reqs;
    for (size_t r = 0; r < n_rungs; ++r) {
        Prng arrivals_rng(ctx.seed, 400 + r), token_rng(ctx.seed, 500 + r);
        const std::vector<double> arrivals =
            poissonArrivals(arrivals_rng, kRequestsPerRung[r], kRatesRps[r]);
        std::vector<ServerRequest> reqs(kRequestsPerRung[r]);
        for (size_t i = 0; i < reqs.size(); ++i) {
            reqs[i].prompt =
                randomTokens(token_rng, kPromptTokens, cfg.model.vocabSize);
            reqs[i].nOut = kOutputTokens;
            reqs[i].arrivalSeconds = arrivals[i];
        }
        rung_reqs.push_back(std::move(reqs));
    }

    std::vector<HostTime> setups;
    std::vector<RoundCostModel> models;
    auto calibrate = [&]() {
        setups.push_back(ctx.probe.time([&] {
            PERFBENCH_SPAN(ctx, "calibrate", "appliance.fleet", -1);
            models.push_back(RoundCostModel::calibrate(cfg));
        }));
    };
    auto pass = [&](const RoundCostModel &model) {
        std::vector<RungResult> out;
        for (size_t r = 0; r < n_rungs; ++r) {
            PERFBENCH_SPAN(ctx, "rung", "appliance.fleet",
                           static_cast<int64_t>(r));
            FleetOptions fopt;
            fopt.policy = FleetRoutePolicy::LeastLoaded;
            fopt.sloTtftBudgetSeconds = kSloTtftBudgetSeconds;
            fopt.serveDeadlineHostSeconds = kDeadlineHostSeconds;
            const double horizon =
                static_cast<double>(kRequestsPerRung[r]) / kRatesRps[r];
            fopt.faultPlan.failStops.push_back({kFailingNode, horizon / 3.0});
            DfxFleet fleet(model, topo, fopt);
            RungResult res;
            res.rate = kRatesRps[r];
            res.host = ctx.probe.time([&] {
                PERFBENCH_SPAN(ctx, "serve", "appliance.fleet", -1);
                res.stats = fleet.serve(rung_reqs[r]);
            });
            out.push_back(std::move(res));
        }
        return out;
    };

    ServePasses<RungResult> passes(rung_reqs);

    if (!ctx.trace) {
        for (size_t i = 0; i < kSetupRepeats; ++i)
            calibrate();
        const double t0 = hostNow();
        do {
            passes.check(rec, pass(models.back()));
        } while (hostNow() - t0 < ctx.seconds);
    } else {
        double t0 = hostNow();
        calibrate();
        passes.check(rec, pass(models.back()));
        const double untraced = hostNow() - t0;
        ctx.tracer.start(ctx.outDir + "/library-trace.json");
        t0 = hostNow();
        calibrate();
        const std::vector<RungResult> tp =
            passes.check(rec, pass(models.back()));
        const double traced = hostNow() - t0;
        ctx.tracer.stop();
        ctx.tracer.write(ctx.outDir + "/spans.json");

        uint64_t events = 0;
        double serve_host = 0.0;
        for (const RungResult &res : tp) {
            events += res.stats.eventsProcessed;
            serve_host += res.host.seconds;
        }
        const FleetStats &nom = tp[passes.nominal()].stats;
        rec.layer("fleet.events", static_cast<double>(events), "count", "M",
                  tp.size());
        rec.layer("fleet.host_ns_per_event",
                  1e9 * serve_host / static_cast<double>(events), "ns", "H",
                  events);
        rec.layer("fleet.calibrate_s", setups.back().seconds, "s", "H", 1);
        rec.layer("fleet.kv_transfers", static_cast<double>(nom.kvTransfers),
                  "count", "M", 1);
        rec.layer("fleet.kv_transfer_mb",
                  static_cast<double>(nom.kvTransferBytes) / (1 << 20), "MB",
                  "M", nom.kvTransfers);
        rec.layer("fleet.kv_transfer_ms_mean",
                  nom.kvTransfers ? 1e3 * nom.kvTransferSeconds /
                                        static_cast<double>(nom.kvTransfers)
                                  : 0.0,
                  "ms", "M", nom.kvTransfers);
        rec.layer("fleet.shed", static_cast<double>(nom.totalShed), "count",
                  "M", 1);
        rec.layer("fleet.retries", static_cast<double>(nom.totalRetries),
                  "count", "M", 1);
        rec.layer("fleet.failovers", static_cast<double>(nom.totalFailovers),
                  "count", "M", 1);
        double umin = 1.0, umax = 0.0;
        for (const FleetNodeStats &n : nom.nodes) {
            umin = std::min(umin, n.utilization);
            umax = std::max(umax, n.utilization);
        }
        rec.layer("fleet.node_utilization_min", umin, "ratio", "M",
                  nom.nodes.size());
        rec.layer("fleet.node_utilization_max", umax, "ratio", "M",
                  nom.nodes.size());
        ServePasses<RungResult>::reportServeSeconds(rec, "fleet", tp);
        // Calibration probes a private cluster, so its library time
        // comes from the trace scopes; the LM-head phase runs outside
        // them and stays in appliance.fleet self time.
        const Tracer &tr = ctx.tracer;
        reportReconciliation(
            ctx,
            {{"isa", tr.librarySeconds("codegen") + tr.librarySeconds("patch") +
                         tr.librarySeconds("encode")},
             {"core", tr.librarySeconds("execute")},
             {"network", tr.librarySeconds("ring-sync")}},
            "appliance.fleet", 1.0, traced, untraced);
    }

    // --- correctness and determinism --------------------------------
    for (const RoundCostModel &m : models) {
        m.validate();
        rec.check(sameModel(m, models[0]),
                  "calibration is not deterministic");
    }

    passes.report(ctx, kTtftLimitSeconds, kTpotLimitSeconds, setups);
}

}  // namespace perfbench
