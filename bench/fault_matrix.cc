/**
 * @file
 * Fault-matrix robustness sweep: the divider covert channel driven
 * through increasing injected quantum-loss rates.  Reports detection
 * accuracy, mean alarm confidence, and effective window coverage per
 * fault rate, and emits the series as BENCH_faults.json so CI can
 * track detection accuracy vs injected fault rate across commits.
 *
 * Arguments (key=value): bandwidth, quantum, quanta, seed, runs,
 * benign=1 (adds a benign-pair false-alarm column), out=<path>.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "workloads/suites.hh"

using namespace cchunter;
using namespace cchunter::bench;

namespace
{

/** One row of the sweep: aggregates over `runs` seeded repetitions. */
struct SweepPoint
{
    double dropRate = 0.0;
    unsigned runs = 0;
    unsigned detected = 0;
    unsigned benignAlarms = 0;
    unsigned benignRuns = 0;
    double meanConfidence = 0.0;
    double meanCoverage = 0.0;
    std::uint64_t missedQuanta = 0;
    std::uint64_t totalFaults = 0;

    double accuracy() const
    {
        return runs ? static_cast<double>(detected) / runs : 0.0;
    }
};

void
writeJson(const std::string& path, const ScenarioOptions& base,
          unsigned runs, const std::vector<SweepPoint>& sweep)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"fault_matrix\",\n");
    std::fprintf(f, "  \"scenario\": \"divider\",\n");
    std::fprintf(f, "  \"bandwidth_bps\": %.1f,\n", base.bandwidthBps);
    std::fprintf(f, "  \"quantum\": %llu,\n",
                 static_cast<unsigned long long>(base.quantum));
    std::fprintf(f, "  \"quanta\": %llu,\n",
                 static_cast<unsigned long long>(base.quanta));
    std::fprintf(f, "  \"runs_per_rate\": %u,\n", runs);
    std::fprintf(f, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const SweepPoint& p = sweep[i];
        std::fprintf(
            f,
            "    {\"drop_rate\": %.2f, \"runs\": %u, "
            "\"detected\": %u, \"accuracy\": %.4f, "
            "\"mean_confidence\": %.4f, \"mean_coverage\": %.4f, "
            "\"missed_quanta\": %llu, \"total_faults\": %llu, "
            "\"benign_runs\": %u, \"benign_false_alarms\": %u}%s\n",
            p.dropRate, p.runs, p.detected, p.accuracy(),
            p.meanConfidence, p.meanCoverage,
            static_cast<unsigned long long>(p.missedQuanta),
            static_cast<unsigned long long>(p.totalFaults),
            p.benignRuns, p.benignAlarms,
            i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions base;
    base.bandwidthBps = cfg.getDouble("bandwidth", 10000.0);
    base.quantum = cfg.getUint("quantum", 2500000);
    base.quanta = cfg.getUint("quanta", 16);
    base.seed = cfg.getUint("seed", 1);
    base.noiseProcesses = 0;
    const auto runs =
        static_cast<unsigned>(cfg.getUint("runs", 3));
    const bool benign = cfg.getUint("benign", 0) != 0;
    const std::string out = cfg.getString("out", "BENCH_faults.json");

    banner("Fault matrix: detection vs injected quantum loss",
           "The divider channel must keep its likelihood-ratio "
           "verdict while the daemon loses scheduling quanta; "
           "confidence and coverage degrade honestly.");

    const std::vector<double> rates = {0.0, 0.05, 0.10, 0.20, 0.30};
    std::vector<SweepPoint> sweep;
    TableWriter t({"drop rate", "detected", "accuracy", "confidence",
                   "coverage", "missed", "faults"});
    for (const double rate : rates) {
        SweepPoint p;
        p.dropRate = rate;
        p.runs = runs;
        for (unsigned r = 0; r < runs; ++r) {
            ScenarioOptions opts = base;
            // Distinct fault schedules per repetition, reproducible
            // across invocations.
            opts.faults.seed = 100 * (r + 1) + base.seed;
            opts.faults.dropQuantumRate = rate;
            const TracedRun res =
                traceChannel(AuditedWorkload::Divider, opts);
            const DegradedStats& degraded = res.result.degraded;
            p.detected += res.contention().detected;
            p.meanConfidence += res.result.finalVerdicts[0].confidence;
            p.meanCoverage += degraded.windowCoverage;
            p.missedQuanta += degraded.missedQuanta;
            p.totalFaults += degraded.totalFaults();
            if (benign) {
                ++p.benignRuns;
                p.benignAlarms +=
                    auditBenignPair("gobmk", "sjeng", opts).alarms();
            }
        }
        p.meanConfidence /= runs;
        p.meanCoverage /= runs;
        sweep.push_back(p);
        t.addRow({fmtDouble(rate, 2),
                  std::to_string(p.detected) + "/" +
                      std::to_string(p.runs),
                  fmtDouble(p.accuracy(), 3),
                  fmtDouble(p.meanConfidence, 3),
                  fmtDouble(p.meanCoverage, 3),
                  std::to_string(p.missedQuanta),
                  std::to_string(p.totalFaults)});
    }
    t.render(std::cout);
    if (benign) {
        std::printf("\nbenign false alarms:");
        for (const SweepPoint& p : sweep)
            std::printf(" %.2f:%u/%u", p.dropRate, p.benignAlarms,
                        p.benignRuns * 3);
        std::printf("\n");
    }

    writeJson(out, base, runs, sweep);

    // Exit non-zero if detection collapses within the acceptance
    // envelope (<= 10% loss) so CI fails loudly.
    for (const SweepPoint& p : sweep)
        if (p.dropRate <= 0.10 + 1e-9 && p.detected < p.runs) {
            std::fprintf(stderr,
                         "FAIL: detection lost at drop rate %.2f "
                         "(%u/%u)\n",
                         p.dropRate, p.detected, p.runs);
            return 1;
        }
    return 0;
}
