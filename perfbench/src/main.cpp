/**
 * @file
 * Repository benchmark binary.
 *
 *   dfx_perfbench --workload <decode-func|serve-prefix|fleet-failover>
 *                 --seed <n> --seconds <s> --trace <0|1>
 *                 --out <dir>
 *
 * perfbench/run.py builds and runs this binary. It prints every
 * metric by name and unit, then one line `PERFBENCH_RECORD {...}`
 * holding the full record (host fingerprint, metrics at full
 * precision, correctness violations). It exits non-zero on any
 * correctness violation.
 */
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <sys/stat.h>

#include "numeric/simd.hpp"
#include "support.hpp"

namespace {

using perfbench::Metric;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** First /proc/cpuinfo line starting with `key`, value part. */
std::string
cpuinfo(const std::string &key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? ""
                                              : line.substr(colon + 2);
        }
    }
    return "";
}

std::string
isaFlags()
{
    const std::string flags = " " + cpuinfo("flags") + " ";
    std::string out;
    for (const char *f : {"sse4_2", "avx", "avx2", "f16c", "fma", "avx512f",
                          "avx512_fp16"}) {
        if (flags.find(std::string(" ") + f + " ") != std::string::npos)
            out += out.empty() ? f : std::string(",") + f;
    }
    return out;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
               ", \"kind\": " + jsonString(m.kind) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    return out + "}";
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-34s %22.10g %-8s [%s, n=%zu]\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.kind.c_str(), m.samples);
}

}  // namespace

int
main(int argc, char **argv)
{
    // set-up time must always measure weight generation.
    unsetenv("DFX_WEIGHT_CACHE");
    try {
        const perfbench::Options opt(argc, argv);
        const std::string workload = opt.str("workload");
        const std::string build_type = PERFBENCH_BUILD_TYPE;
        if ((build_type != "Release" && build_type != "RelWithDebInfo") ||
            PERFBENCH_SANITIZED) {
            std::fprintf(stderr,
                         "perfbench: refusing to report host metrics from "
                         "a '%s'%s build; configure Release\n",
                         build_type.c_str(),
                         PERFBENCH_SANITIZED ? " sanitizer" : "");
            return 3;
        }

        perfbench::Context ctx(opt.count("trace") != 0);
        ctx.seed = opt.count("seed");
        ctx.seconds = opt.num("seconds");
        ctx.outDir = opt.str("out");
        mkdir(ctx.outDir.c_str(), 0755);

        const char *force_scalar = std::getenv("DFX_FORCE_SCALAR");
        const std::string fingerprint =
            "{\"cpu\": " + jsonString(cpuinfo("model name")) +
            ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
            ", \"isa\": " + jsonString(isaFlags()) +
            ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
            ", \"build_type\": " + jsonString(build_type) +
            ", \"simd_kernel\": " + jsonString(dfx::simd::kernelName()) +
            ", \"dfx_force_scalar\": " +
            jsonString(force_scalar ? force_scalar : "") + "}";
        std::printf("perfbench %s seed %llu, %.0fs, trace %d\nhost %s\n",
                    workload.c_str(),
                    static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                    ctx.trace ? 1 : 0, fingerprint.c_str());

        const double t0 = perfbench::hostNow();
        if (workload == "decode-func")
            perfbench::runDecodeFunc(ctx);
        else if (workload == "serve-prefix")
            perfbench::runServePrefix(ctx);
        else if (workload == "fleet-failover")
            perfbench::runFleetFailover(ctx);
        else
            throw std::invalid_argument("unknown workload " + workload);
        const double wall = perfbench::hostNow() - t0;

        perfbench::Record &rec = ctx.record;
        printMetrics(ctx.trace ? "per-layer metrics (traced run):"
                               : "end-to-end metrics:",
                     ctx.trace ? rec.perLayer : rec.endToEnd);
        for (const std::string &v : rec.violations)
            std::printf("VIOLATION: %s\n", v.c_str());
        std::printf("attempted %llu, failed %llu, %zu violations, "
                    "%.2fs host\n",
                    static_cast<unsigned long long>(rec.attempted),
                    static_cast<unsigned long long>(rec.failed),
                    rec.violations.size(), wall);

        std::string violations = "[";
        for (size_t i = 0; i < rec.violations.size(); ++i)
            violations += (i ? ", " : "") + jsonString(rec.violations[i]);
        violations += "]";
        std::printf(
            "PERFBENCH_RECORD {\"workload\": %s, \"seed\": %llu, "
            "\"trace\": %d, \"host\": %s, \"correct\": %s, "
            "\"attempted\": %llu, \"failed\": %llu, \"violations\": %s, "
            "\"wall_s\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n",
            jsonString(workload).c_str(),
            static_cast<unsigned long long>(ctx.seed), ctx.trace ? 1 : 0,
            fingerprint.c_str(),
            rec.violations.empty() ? "true" : "false",
            static_cast<unsigned long long>(rec.attempted),
            static_cast<unsigned long long>(rec.failed), violations.c_str(),
            jsonNumber(wall).c_str(), metricsJson(rec.endToEnd).c_str(),
            metricsJson(rec.perLayer).c_str());
        return rec.violations.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
