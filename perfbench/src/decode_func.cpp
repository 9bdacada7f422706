/**
 * @file
 * Workload `decode-func`: one closed-loop client on a functional
 * gpt2-petite appliance (8 cores, 1 host thread, unpaged KV). Each
 * request runs acquireLease -> prefill -> decodeStep after the
 * previous one finished. Generation-stage heavy: nearly all host time
 * is the MPU MAC path (numeric + core), the paper's bottleneck stage.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "appliance/appliance.hpp"
#include "model/reference.hpp"
#include "model/weights.hpp"
#include "numeric/functions.hpp"
#include "numeric/simd.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

using namespace dfx;

// Workload constants. A request has kPromptMin + Bin(kLengthFlips, 1/2)
// prompt tokens and kOutputMin + Bin(kLengthFlips, 1/2) output tokens.
constexpr size_t kRequests = 8;
constexpr size_t kPromptMin = 7;
constexpr size_t kOutputMin = 55;
constexpr size_t kLengthFlips = 2;
constexpr size_t kCores = 8;
constexpr size_t kSetupRepeats = 3;
constexpr double kTtftLimitSeconds = 5e-3;
constexpr double kTpotLimitSeconds = 0.5e-3;
/** Largest reference-logit lead an FP16 near-tie may have. */
constexpr double kNearTieLogitGap = 0.01;
constexpr size_t kMacProbeCalls = 400;

struct Request
{
    std::vector<int32_t> prompt;
    size_t nOut = 0;
};

/** Modeled timeline of one request on the closed-loop clock. */
struct Timeline
{
    double arrival = 0.0;
    double firstToken = 0.0;
    double finish = 0.0;
};

/** One closed-loop pass over every request. */
struct Pass
{
    std::vector<std::vector<int32_t>> tokens;
    std::vector<Timeline> timeline;
    TokenStats prefill;  ///< summed summarization-stage steps
    TokenStats decode;   ///< summed generation-stage steps
    size_t prefillSteps = 0;
    size_t decodeSteps = 0;
    size_t simTokens = 0;  ///< prompt + output tokens
    HostTime host;         ///< summed over requests
};

struct Setup
{
    std::unique_ptr<DfxAppliance> appliance;
    double weightsSeconds = 0.0;
};

DfxSystemConfig
decodeConfig()
{
    DfxSystemConfig cfg;
    cfg.model = petiteModel();
    cfg.nCores = kCores;
    cfg.functional = true;
    cfg.nThreads = 1;
    cfg.kvContexts = 1;
    return cfg;
}

/** Weight image, appliance construction and a warm-up request that
 *  fills the program cache. */
Setup
setUp(Context &ctx, const DfxSystemConfig &base, uint64_t weight_seed)
{
    Setup s;
    const double t0 = hostNow();
    DfxSystemConfig cfg = base;
    {
        PERFBENCH_SPAN(ctx, "make_weight_store", "model", -1);
        cfg.weightStore = makeWeightStore(cfg, weight_seed);
        cfg.weightStore->materializeAll();
    }
    s.weightsSeconds = hostNow() - t0;
    {
        PERFBENCH_SPAN(ctx, "construct_appliance", "appliance", -1);
        s.appliance = std::make_unique<DfxAppliance>(cfg);
    }
    {
        PERFBENCH_SPAN(ctx, "warm_up", "appliance", -1);
        const std::vector<int32_t> warm = {1, 2};
        KvLease lease = s.appliance->acquireLease({warm, 2, false});
        const StepOutcome pre = s.appliance->prefill(lease, warm);
        s.appliance->decodeStep(lease.ctx(), pre.next);
    }
    s.appliance->cluster().resetHostProfile();
    return s;
}

Pass
runPass(Context &ctx, DfxAppliance &app, const std::vector<Request> &reqs)
{
    Pass p;
    double clock = 0.0;  // closed loop: next arrival = previous finish
    for (size_t i = 0; i < reqs.size(); ++i) {
        const Request &r = reqs[i];
        const int64_t id = static_cast<int64_t>(i);
        Timeline tl;
        tl.arrival = clock;
        std::vector<int32_t> out;
        p.host += ctx.probe.time([&] {
            PERFBENCH_SPAN(ctx, "request", "appliance", id);
            KvLease lease;
            {
                PERFBENCH_SPAN(ctx, "acquire_lease", "appliance", id);
                lease = app.acquireLease({r.prompt, r.nOut, false});
            }
            StepOutcome pre;
            {
                PERFBENCH_SPAN(ctx, "prefill", "appliance", id);
                pre = app.prefill(lease, r.prompt);
            }
            p.prefill.accumulate(pre.stats);
            p.prefillSteps += r.prompt.size();
            double t = tl.arrival +
                       app.pcieSeconds(r.prompt.size() * 4 + 64) +
                       pre.stats.seconds;
            tl.firstToken = t;
            out.push_back(pre.next);
            for (size_t k = 1; k < r.nOut; ++k) {
                StepOutcome step;
                {
                    PERFBENCH_SPAN(ctx, "decode_step", "appliance", id);
                    step = app.decodeStep(lease.ctx(), out.back());
                }
                p.decode.accumulate(step.stats);
                ++p.decodeSteps;
                t += step.stats.seconds;
                out.push_back(step.next);
            }
            tl.finish = t + app.pcieSeconds(r.nOut * 4);
        });
        clock = tl.finish;
        p.simTokens += r.prompt.size() + r.nOut;
        p.tokens.push_back(std::move(out));
        p.timeline.push_back(tl);
    }
    return p;
}

bool
sameTimeline(const Pass &a, const Pass &b)
{
    for (size_t i = 0; i < a.timeline.size(); ++i) {
        const Timeline &x = a.timeline[i], &y = b.timeline[i];
        if (x.arrival != y.arrival || x.firstToken != y.firstToken ||
            x.finish != y.finish)
            return false;
    }
    return a.timeline.size() == b.timeline.size();
}

/** Outcome of the teacher-forced ReferenceModel comparison. */
struct ReferenceCheck
{
    size_t tokens = 0;
    size_t exact = 0;     ///< the reference's argmax
    size_t nearTies = 0;  ///< within the FP16 near-tie logit gap
    double maxTieGap = 0.0;
    /** Reference top-1 minus top-2 logit per checked token: the scale
     *  the near-tie gap is small against. */
    std::vector<double> margins;
    std::vector<std::string> mismatch;  ///< per request; empty = ok
};

/**
 * Replays every request through the FP32 ReferenceModel of the same
 * weights, teacher-forced on the appliance's own tokens: at each
 * generated position the appliance token must be the reference's
 * argmax, or trail it by at most `tie_gap` logits (an FP16 near-tie,
 * which the FP16 datapath may legitimately break the other way).
 * Requests are split over two host threads.
 */
ReferenceCheck
checkReference(const GptConfig &model, uint64_t weight_seed,
               const std::vector<Request> &reqs,
               const std::vector<std::vector<int32_t>> &tokens,
               double tie_gap)
{
    const GptWeights weights = GptWeights::random(model, weight_seed);
    std::vector<ReferenceCheck> part(2);
    for (ReferenceCheck &c : part)
        c.mismatch.resize(reqs.size());
    auto worker = [&](size_t w) {
        ReferenceCheck &c = part[w];
        ReferenceModel ref(weights);
        for (size_t i = w; i < reqs.size(); i += part.size()) {
            ref.reset();
            VecF logits;
            for (int32_t t : reqs[i].prompt)
                logits = ref.step(t);
            for (size_t k = 0; k < tokens[i].size(); ++k) {
                const int32_t got = tokens[i][k];
                const size_t top = argmax(logits);
                float second = -INFINITY;
                for (size_t v = 0; v < logits.size(); ++v)
                    if (v != top)
                        second = std::max(second, logits[v]);
                c.margins.push_back(logits[top] - second);
                ++c.tokens;
                if (static_cast<size_t>(got) == top) {
                    ++c.exact;
                } else {
                    const double gap =
                        got >= 0 && static_cast<size_t>(got) < logits.size()
                            ? logits[top] - logits[static_cast<size_t>(got)]
                            : INFINITY;
                    if (gap <= tie_gap) {
                        ++c.nearTies;
                        c.maxTieGap = std::max(c.maxTieGap, gap);
                    } else if (c.mismatch[i].empty()) {
                        char buf[160];
                        std::snprintf(buf, sizeof buf,
                                      "token %zu is %d, reference argmax "
                                      "%zu leads it by %.4g logits",
                                      k, got, top, gap);
                        c.mismatch[i] = buf;
                    }
                }
                if (k + 1 < tokens[i].size())
                    logits = ref.step(got);
            }
        }
    };
    std::thread second(worker, 1);
    worker(0);
    second.join();
    ReferenceCheck all = part[0];
    const ReferenceCheck &b = part[1];
    all.tokens += b.tokens;
    all.exact += b.exact;
    all.nearTies += b.nearTies;
    all.maxTieGap = std::max(all.maxTieGap, b.maxTieGap);
    all.margins.insert(all.margins.end(), b.margins.begin(), b.margins.end());
    for (size_t i = 0; i < reqs.size(); ++i)
        if (all.mismatch[i].empty())
            all.mismatch[i] = b.mismatch[i];
    return all;
}

/** GMAC/s of simd::macRowMajor at the MPU's row-major shape for this
 *  workload (one core's FFN up-projection shard, d-row MAC tree). */
double
macProbe(const DfxSystemConfig &cfg, size_t calls, uint64_t seed)
{
    const size_t rows = cfg.model.embedding;
    const size_t cols = cfg.model.ffnHidden() / cfg.nCores;
    const size_t tile = cfg.core.tileRows;
    Prng rng(seed, 7);
    std::vector<Half> w(rows * cols);
    for (Half &h : w)
        h = Half::fromDouble(rng.uniform() - 0.5);
    std::vector<float> x(rows), acc(cols);
    for (float &v : x)
        v = Half::fromDouble(rng.uniform() - 0.5).toFloat();
    const double t0 = hostNow();
    for (size_t i = 0; i < calls; ++i) {
        std::fill(acc.begin(), acc.end(), 0.0f);
        simd::macRowMajor(w.data(), cols, x.data(), rows, cols, tile,
                          acc.data());
    }
    const double dt = hostNow() - t0;
    volatile float sink = acc[0];
    (void)sink;
    return static_cast<double>(calls * rows * cols) / dt / 1e9;
}

}  // namespace

void
runDecodeFunc(Context &ctx)
{
    const DfxSystemConfig cfg = decodeConfig();
    Record &rec = ctx.record;
    static_assert(kPromptMin >= 1 && kOutputMin >= 2);
    if (kPromptMin + kOutputMin + 2 * kLengthFlips > cfg.model.maxSeq)
        throw std::invalid_argument("decode-func: bad token counts");

    // Inputs: a weights seed, then per request a prompt of kPromptMin
    // + Bin(kLengthFlips, 1/2) tokens, its ids, and an output of
    // kOutputMin + Bin(kLengthFlips, 1/2) tokens.
    Prng weights_rng(ctx.seed, 1), req_rng(ctx.seed, 2);
    const uint64_t weight_seed = weights_rng.next();
    auto binomial = [&]() {
        size_t heads = 0;
        for (size_t f = 0; f < kLengthFlips; ++f)
            heads += req_rng.next() >> 63;
        return heads;
    };
    std::vector<Request> reqs(kRequests);
    for (Request &r : reqs) {
        const size_t n_in = kPromptMin + binomial();
        r.prompt = randomTokens(req_rng, n_in, cfg.model.vocabSize);
        r.nOut = kOutputMin + binomial();
    }

    std::vector<Pass> passes;
    std::vector<HostTime> setups;
    Setup live;
    if (!ctx.trace) {
        // Set up several times; setup_s is the median.
        for (size_t i = 0; i < kSetupRepeats; ++i) {
            live = Setup{};  // release the previous image first
            setups.push_back(
                ctx.probe.time([&] { live = setUp(ctx, cfg, weight_seed); }));
        }
        // Timed phase: whole passes until --seconds have elapsed.
        const double t0 = hostNow();
        do {
            passes.push_back(runPass(ctx, *live.appliance, reqs));
        } while (hostNow() - t0 < ctx.seconds);
    } else {
        // Traced run: the same set-up + one pass untraced, then traced.
        rec.layer("numeric.mac_gmac_s",
                  macProbe(cfg, kMacProbeCalls, ctx.seed), "GMAC/s", "H",
                  kMacProbeCalls);
        double t0 = hostNow();
        live = setUp(ctx, cfg, weight_seed);
        passes.push_back(runPass(ctx, *live.appliance, reqs));
        const double untraced = hostNow() - t0;
        live = Setup{};

        ctx.tracer.start(ctx.outDir + "/library-trace.json");
        t0 = hostNow();
        live = setUp(ctx, cfg, weight_seed);
        passes.push_back(runPass(ctx, *live.appliance, reqs));
        const double traced = hostNow() - t0;
        ctx.tracer.stop();
        ctx.tracer.write(ctx.outDir + "/spans.json");

        const Pass &tp = passes.back();
        const double steps =
            static_cast<double>(tp.prefillSteps + tp.decodeSteps);
        TokenStats all = tp.prefill;
        all.accumulate(tp.decode);
        const Tracer &tr = ctx.tracer;
        rec.layer("model.weights_gen_s", live.weightsSeconds, "s", "H", 1);
        rec.layer("model.weight_image_mb",
                  static_cast<double>(
                      live.appliance->config().weightStore->imageBytes()) /
                      (1 << 20),
                  "MB", "M", 1);
        rec.layer("core.mpu_ms_per_step",
                  1e3 * tr.librarySeconds("mpu") / steps, "ms", "H",
                  tr.libraryCount("mpu"));
        rec.layer("core.vpu_ms_per_step",
                  1e3 * tr.librarySeconds("vpu") / steps, "ms", "H",
                  tr.libraryCount("vpu"));
        rec.layer("core.dma_ms_per_step",
                  1e3 * tr.librarySeconds("dma") / steps, "ms", "H",
                  tr.libraryCount("dma"));
        rec.layer("core.instructions_per_step",
                  static_cast<double>(all.instructions) / steps, "count",
                  "M", static_cast<size_t>(steps));
        rec.layer("core.hbm_mb_per_step",
                  static_cast<double>(all.hbmBytes) / steps / (1 << 20),
                  "MB", "M", static_cast<size_t>(steps));
        const auto share = [&](isa::Category c) {
            return all.categorySeconds[static_cast<size_t>(c)] /
                   all.seconds;
        };
        rec.layer("core.share.attention", share(isa::Category::kAttention),
                  "ratio", "M", static_cast<size_t>(steps));
        rec.layer("core.share.ffn", share(isa::Category::kFfn), "ratio",
                  "M", static_cast<size_t>(steps));
        rec.layer("core.share.layernorm", share(isa::Category::kLayerNorm),
                  "ratio", "M", static_cast<size_t>(steps));
        rec.layer("core.share.residual", share(isa::Category::kResidual),
                  "ratio", "M", static_cast<size_t>(steps));
        rec.layer("network.ring_sync_ms_per_step",
                  1e3 * tr.librarySeconds("ring-sync") / steps, "ms", "H",
                  tr.libraryCount("ring-sync"));
        rec.layer("network.share.sync", share(isa::Category::kSync),
                  "ratio", "M", static_cast<size_t>(steps));
        const perf::HostStepProfile hp =
            live.appliance->cluster().hostProfile();
        rec.layer("isa.codegen_us_per_step", 1e6 * hp.codegenSeconds / steps,
                  "us", "H", hp.steps);
        rec.layer("isa.patch_us_per_step", 1e6 * hp.patchSeconds / steps,
                  "us", "H", hp.steps);
        rec.layer("isa.encode_us_per_step", 1e6 * hp.encodeSeconds / steps,
                  "us", "H", hp.steps);
        rec.layer("isa.cache_hit_ratio", hp.cacheHitRate(), "ratio", "H",
                  hp.cacheHits + hp.cacheMisses);
        std::vector<double> prefill_ms, decode_ms;
        for (const Tracer::Span &s : tr.spans()) {
            const std::string name = s.name;
            if (name == "prefill")
                prefill_ms.push_back(1e3 * (s.end - s.start));
            else if (name == "decode_step")
                decode_ms.push_back(1e3 * (s.end - s.start));
        }
        rec.layer("appliance.prefill_ms", quantile(prefill_ms, 0.5), "ms",
                  "H", prefill_ms.size());
        rec.layer("appliance.decode_step_ms", quantile(decode_ms, 0.5),
                  "ms", "H", decode_ms.size());
        rec.layer("appliance.gflops.summarization",
                  tp.prefill.flops / tp.prefill.seconds / 1e9, "GFLOP/s",
                  "M", tp.prefillSteps);
        rec.layer("appliance.gflops.generation",
                  tp.decode.flops / tp.decode.seconds / 1e9, "GFLOP/s", "M",
                  tp.decodeSteps);
        // The host profile times every library stage, LM head included;
        // the trace scopes give the ring-sync share of its execute time.
        const double ring = tr.librarySeconds("ring-sync");
        reportReconciliation(
            ctx,
            {{"isa", hp.codegenSeconds + hp.patchSeconds + hp.encodeSeconds},
             {"core", hp.executeSeconds - ring},
             {"network", ring}},
            "appliance", 1.0, traced, untraced);
    }

    if (!ctx.trace) {
        // --- end-to-end metrics: modeled from pass 0 (all passes are
        // bit-identical), host over every pass.
        const Pass &p0 = passes[0];
        std::vector<double> ttft, tpot;
        size_t out_tokens = 0, good = 0;
        for (size_t i = 0; i < reqs.size(); ++i) {
            const Timeline &tl = p0.timeline[i];
            ttft.push_back(tl.firstToken - tl.arrival);
            tpot.push_back((tl.finish - tl.firstToken) /
                           static_cast<double>(reqs[i].nOut - 1));
            out_tokens += reqs[i].nOut;
            good += ttft.back() <= kTtftLimitSeconds &&
                    tpot.back() <= kTpotLimitSeconds;
        }
        const double makespan = p0.timeline.back().finish;
        uint64_t sim_tokens = 0;
        HostTime host;
        for (const Pass &p : passes) {
            sim_tokens += p.simTokens;
            host += p.host;
        }
        reportEndToEnd(ctx, ttft, tpot,
                       static_cast<double>(out_tokens) / makespan,
                       static_cast<double>(good) / makespan, 0.0, sim_tokens,
                       host, passes.size() * reqs.size(), setups);
    }

    // --- correctness: every pass bit-identical (tokens and modeled
    // timeline), and every token the ReferenceModel's greedy choice.
    for (size_t p = 0; p < passes.size(); ++p) {
        for (size_t i = 0; i < reqs.size(); ++i) {
            ++rec.attempted;
            if (!rec.check(passes[p].tokens[i] == passes[0].tokens[i],
                           "pass %zu request %zu: tokens differ from pass 0",
                           p, i))
                ++rec.failed;
        }
        rec.check(sameTimeline(passes[p], passes[0]),
                  "pass %zu: modeled timeline differs from pass 0", p);
    }
    const ReferenceCheck ref = checkReference(
        cfg.model, weight_seed, reqs, passes[0].tokens, kNearTieLogitGap);
    std::printf("reference: %zu of %zu tokens are the FP32 reference's "
                "argmax, %zu FP16 near-ties (largest logit gap %.3g; median "
                "top-2 margin %.3g)\n",
                ref.exact, ref.tokens, ref.nearTies, ref.maxTieGap,
                quantile(ref.margins, 0.5));
    for (size_t i = 0; i < reqs.size(); ++i)
        if (!rec.check(ref.mismatch[i].empty(), "request %zu: %s", i,
                       ref.mismatch[i].c_str()))
            ++rec.failed;
}

}  // namespace perfbench
