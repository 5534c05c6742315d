/**
 * @file
 * Fleet-audit benchmark program.
 *
 *   fleet_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--tiny] [--corrupt-expected-hash]
 *
 * --trace 0 times whole FleetAuditor::run passes and prints the
 * end-to-end metrics; --trace 1 composes the same fleet from the
 * per-module calls and prints the per-layer split.  The last line of
 * stdout is one JSON object: correct, attempted, failed, metrics.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hh"

namespace
{

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "fleet_bench: %s\nusage: fleet_bench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
                 "[--corrupt-expected-hash]\n",
                 why);
    std::exit(2);
}

perfbench::Options
parse(int argc, char** argv)
{
    perfbench::Options opts;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opts.workload = value();
            haveWorkload = true;
        } else if (arg == "--seed") {
            opts.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            opts.seconds = std::stod(value());
        } else if (arg == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                usage("--trace takes 0 or 1");
            opts.trace = t == "1";
        } else if (arg == "--tiny") {
            opts.tiny = true;
        } else if (arg == "--corrupt-expected-hash") {
            opts.corruptExpectedHash = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

} // namespace

int
main(int argc, char** argv)
{
    const perfbench::Options opts = parse(argc, argv);
    const perfbench::WorkloadSpec spec =
        perfbench::makeWorkload(opts.workload, opts.seed, opts.tiny);
    const perfbench::RunResult result =
        opts.trace ? perfbench::runLayers(spec, opts)
                   : perfbench::runEndToEnd(spec, opts);

    for (const perfbench::Metric& m : result.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "fleet_bench: metric %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const perfbench::Metric& m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
