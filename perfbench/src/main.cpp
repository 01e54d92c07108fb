// Receive-chain benchmark program: one seeded run of one workload.
//
//   dvbs2_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--corrupt payload|digest]
//   dvbs2_perfbench --workload NAME --setup-only
//
// Prints a provenance line, a metric table (name value unit) and, as the
// last line, the result object {"correct", "attempted", "failed",
// "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exits 1 when any correctness gate fails and 2 on a usage
// or setup error. run.py builds this program and wraps it; see NOTES.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "chain.hpp"
#include "service/service.hpp"

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    std::string corrupt;
    std::string out_dir;
};

[[noreturn]] void usage(const std::string& msg) {
    std::cerr << "error: " << msg << "\n"
              << "usage: dvbs2_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--corrupt payload|digest] | --workload NAME --setup-only\n";
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(k + " needs a value");
            return argv[++i];
        };
        try {
            if (k == "--workload") a.workload = value();
            else if (k == "--seed") a.seed = std::stoull(value());
            else if (k == "--seconds") a.seconds = std::stod(value());
            else if (k == "--trace") a.trace = std::stoi(value()) != 0;
            else if (k == "--out-dir") a.out_dir = value();
            else if (k == "--corrupt") a.corrupt = value();
            else if (k == "--setup-only") a.setup_only = true;
            else usage("unknown argument " + k);
        } catch (const std::logic_error&) {
            usage("malformed value for " + k);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0)) usage("--seconds must be positive");
    if (!a.corrupt.empty() && a.corrupt != "payload" && a.corrupt != "digest")
        usage("--corrupt must be payload or digest");
    return a;
}

/// Nearest-rank quantile of ascending data.
double quantile(const std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// The highest quantile ≤ 0.99 that leaves at least ten samples beyond it
/// (0.5 when there are too few samples for that).
double tail_quantile(std::size_t n) {
    if (n < 20) return 0.5;
    return std::min(0.99, std::floor(100.0 * static_cast<double>(n - 10) /
                                     static_cast<double>(n)) / 100.0);
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto p = line.find(':');
            return p == std::string::npos ? line : line.substr(p + 2);
        }
    return "unknown";
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_escape(const std::string& s) {
    std::string o;
    for (char ch : s) {
        if (ch == '"' || ch == '\\') o += '\\';
        o += ch;
    }
    return o;
}

struct Metric {
    std::string name, unit;
    double value;
};

std::string metrics_json(const std::vector<Metric>& ms) {
    std::ostringstream o;
    o.precision(17);
    o << "{";
    for (std::size_t i = 0; i < ms.size(); ++i)
        o << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << ms[i].value
          << ", \"unit\": \"" << ms[i].unit << "\"}";
    o << "}";
    return o.str();
}

struct SetupTimes {
    double code_s = 0, bch_s = 0, engine_s = 0;
    double total() const { return code_s + bch_s + engine_s; }
};

/// The timed set-up: codes, BCH codes, then a DecodeService with one class
/// per decode class (add_class builds and range-certifies an engine). Run
/// first in a process, so nothing is cached yet.
SetupTimes timed_setup(const WorkloadDef& wl, std::vector<ClassRt>& classes) {
    SetupTimes st;
    classes = build_classes(wl, st.code_s, st.bch_s);
    const auto t0 = Clock::now();
    service::ServiceConfig cfg;
    cfg.workers = std::max(1u, std::thread::hardware_concurrency());
    cfg.queue_capacity = wl.queue_capacity;
    service::DecodeService svc(cfg);
    for (const auto& c : classes) svc.add_class(*c.code, c.def.spec);
    st.engine_s = std::chrono::duration<double>(Clock::now() - t0).count();
    return st;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> sorted(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
}

double seconds_of(Clock::time_point t) {
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
    const PhaseResult& headline;
    const PhaseResult& latency;  ///< the phase the latency metrics come from
    const PhaseResult& traced;
    const PhaseResult& closed_n;
    const PhaseResult& closed_1;
    const DirectResult& direct;
    const std::vector<LayerTime>& direct_layers;
    const std::vector<Span>& service_spans;
    const SetupTimes& setup;
    unsigned nproc;
    bool open_loop;
    double payload_fer, limit_miss_share, failed_share;
};

std::vector<Metric> per_layer_metrics(const LayerInputs& in) {
    auto layer = [&](const std::string& n) {
        for (const auto& l : in.direct_layers)
            if (l.name == n) return l;
        return LayerTime{n, 0.0, 0.0};
    };
    const DirectResult& d = in.direct;
    const auto frames = static_cast<double>(d.frames);
    const LayerTime chain = layer("chain"), dm = layer("demap"), qz = layer("quantize"),
                    dc = layer("decode"), bc = layer("bch");
    auto share = [&](const LayerTime& l) { return ratio(l.self_s, chain.total_s); };

    // Service residence (submit returned → callback entered) and submit cost,
    // from the traced service phase's spans (matched by frame id).
    std::map<std::uint64_t, double> submit_end;
    std::vector<double> submit_us, residence_ms;
    for (const Span& s : in.service_spans)
        if (std::string(s.name) == "submit") {
            submit_us.push_back(s.seconds() * 1e6);
            submit_end[s.frame] = seconds_of(s.t1);
        }
    for (const Span& s : in.service_spans)
        if (std::string(s.name) == "callback") {
            const auto it = submit_end.find(s.frame);
            if (it != submit_end.end())
                residence_ms.push_back((seconds_of(s.t0) - it->second) * 1e3);
        }
    submit_us = sorted(submit_us);
    residence_ms = sorted(residence_ms);
    const auto late = sorted(in.headline.lateness_ms);
    const auto lat = sorted(in.latency.latency_ms);
    const double tail_q = tail_quantile(lat.size());

    // Cost of tracing. Closed loop: goodput lost to tracing. Open loop (the
    // goodput is the offered load there): relative rise of the median latency.
    const double overhead =
        in.open_loop
            ? ratio(quantile(sorted(in.traced.latency_ms), 0.5), quantile(lat, 0.5)) - 1.0
            : 1.0 - ratio(in.traced.goodput_mbps(), in.headline.goodput_mbps());
    const auto& hm = in.headline.metrics;
    return {
        {"comm.demap_us_per_frame", "us", ratio(dm.total_s, frames) * 1e6},
        {"quant.quantize_us_per_frame", "us", ratio(qz.total_s, frames) * 1e6},
        {"core.decode_us_per_frame", "us", ratio(dc.total_s, frames) * 1e6},
        {"core.decode_ns_per_frame_iter", "ns",
         ratio(dc.total_s, static_cast<double>(d.iterations)) * 1e9},
        {"core.mean_iterations", "count", ratio(static_cast<double>(d.iterations), frames)},
        {"core.converged_share", "share", ratio(static_cast<double>(d.converged), frames)},
        {"bch.decode_us_per_frame", "us", ratio(bc.total_s, frames) * 1e6},
        {"bch.clean_us_per_frame", "us",
         ratio(d.bch_clean_s, static_cast<double>(d.bch_clean)) * 1e6},
        {"bch.correct_us_per_frame", "us",
         ratio(d.bch_correct_s, static_cast<double>(d.bch_corrected + d.bch_failed)) * 1e6},
        {"bch.corrected_share", "share", ratio(static_cast<double>(d.bch_corrected), frames)},
        {"bch.fail_share", "share", ratio(static_cast<double>(d.bch_failed), frames)},
        {"service.residence_ms_p50", "ms", quantile(residence_ms, 0.5)},
        {"service.submit_us_p99", "us", quantile(submit_us, tail_quantile(submit_us.size()))},
        {"service.mean_batch_fill", "share", hm.mean_batch_fill()},
        {"service.linger_batch_share", "share",
         ratio(static_cast<double>(hm.linger_batches), static_cast<double>(hm.batches))},
        {"service.peak_outstanding", "count", static_cast<double>(in.headline.peak_outstanding)},
        {"service.scaling_eff", "share",
         ratio(in.closed_n.goodput_mbps(), in.nproc * in.closed_1.goodput_mbps())},
        {"gen.lateness_ms_p99", "ms", quantile(late, tail_quantile(late.size()))},
        {"setup.code_ms", "ms", in.setup.code_s * 1e3},
        {"setup.bch_ms", "ms", in.setup.bch_s * 1e3},
        {"setup.engine_ms", "ms", in.setup.engine_s * 1e3},
        {"share.demap", "share", share(dm)},
        {"share.quantize", "share", share(qz)},
        {"share.decode", "share", share(dc)},
        {"share.bch", "share", share(bc)},
        {"share.other", "share", share(chain)},
        {"trace.overhead_share", "share", overhead},
        {"payload_fer", "share", in.payload_fer},
        {"limit_miss_share", "share", in.limit_miss_share},
        {"failed_share", "share", in.failed_share},
        {"latency_p90_ms", "ms", quantile(lat, 0.9)},
        {"latency_p99_ms", "ms", quantile(lat, tail_q)},
        {"latency.samples", "count", static_cast<double>(lat.size())},
        {"latency.tail_pct", "%", tail_q * 100.0},
    };
}

void print_table(const char* title, const std::vector<Metric>& ms) {
    std::printf("%s\n", title);
    for (const auto& m : ms)
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
    const Args args = parse(argc, argv);
    const WorkloadDef wl = [&] {
        try {
            return make_workload(args.workload);
        } catch (const std::exception& e) {
            usage(e.what());
        }
    }();
    if (args.setup_only) {
        std::vector<ClassRt> classes;
        const SetupTimes st = timed_setup(wl, classes);
        std::printf(
            "{\"setup_s\": %.9f, \"code_s\": %.9f, \"bch_s\": %.9f, \"engine_s\": %.9f}\n",
            st.total(), st.code_s, st.bch_s, st.engine_s);
        return 0;
    }

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const double S = args.seconds;
    Context ctx;
    ctx.wl = wl;
    ctx.corrupt = args.corrupt;

    // ---- set-up (timed) and input generation (untimed)
    const SetupTimes setup = timed_setup(wl, ctx.classes);
    const auto t_gen = Clock::now();
    generate_pools(ctx.classes, wl.pool_per_class, args.seed, nproc);
    ctx.ref.init(ctx.classes);
    const Plan plan = make_plan(wl, ctx.classes, 200000, args.seed);
    for (auto& c : ctx.classes) {
        const auto engine = core::make_engine(*c.code, c.def.spec);  // untimed probe
        c.preferred_batch = engine->preferred_batch();
        c.backend = engine->backend_name();
    }
    const double gen_s = std::chrono::duration<double>(Clock::now() - t_gen).count();

    // ---- phases
    std::vector<PhaseResult> phases;
    auto run = [&](const char* tag, PhaseOptions o) -> PhaseResult {
        o.corrupt_payload = ctx.corrupt == "payload" && phases.empty();
        o.corrupt_digest = ctx.corrupt == "digest" && o.workers == 1;
        phases.push_back(run_service_phase(ctx, plan, o));
        const PhaseResult& r = phases.back();
        std::fprintf(stderr,
                     "phase %-10s workers=%u %s %.1fs: attempted=%llu delivered=%llu "
                     "goodput=%.3f Mbit/s batches=%llu fill=%.2f linger=%llu\n",
                     tag, o.workers, o.open_loop ? "open" : "closed", r.elapsed_s,
                     static_cast<unsigned long long>(r.attempted),
                     static_cast<unsigned long long>(r.delivered), r.goodput_mbps(),
                     static_cast<unsigned long long>(r.metrics.batches),
                     r.metrics.mean_batch_fill(),
                     static_cast<unsigned long long>(r.metrics.linger_batches));
        return phases.back();
    };

    // Closed-loop phases submit a fixed number of frames: whole batches for
    // every worker, sized from the workload's reference rate to take about
    // `seconds` on the reference host. On closed-loop workloads (one class,
    // its pool walked cyclically) the count is also a whole number of pool
    // passes, so every phase weighs each pool frame equally and the spread
    // between seeds is that of the pools, not of which prefix a phase
    // reached. The headline phase also makes at least one pass over every
    // pool, so payload_fer covers the whole pool.
    int max_batch = 1;
    for (const auto& c : ctx.classes) max_batch = std::max(max_batch, c.preferred_batch);
    auto closed_frames = [&](double fps, double seconds, unsigned workers) {
        auto unit = static_cast<std::size_t>(max_batch) * workers;
        if (!wl.open_loop) unit = std::lcm(unit, static_cast<std::size_t>(wl.pool_per_class));
        const double units = fps * seconds / static_cast<double>(unit);
        const auto want =
            static_cast<std::size_t>(wl.open_loop ? std::ceil(units) : std::round(units));
        return std::max<std::size_t>(want, 1) * unit;
    };

    // Time split: closed-loop workloads give 30% of `seconds` to the
    // headline phase, 30% to the one-worker phase and 40% to the latency
    // phase (whose samples take a one-frame decode each). The open-loop
    // workload gives half to its arrival schedule (latency samples) and a
    // quarter to each closed-loop capacity phase.
    const double head_s = wl.open_loop ? 0.5 * S : 0.3 * S;
    const double cap_s = wl.open_loop ? 0.25 * S : 0.3 * S;
    PhaseOptions head;  // the workload's headline phase; covers every pool frame
    head.workers = nproc;
    head.open_loop = wl.open_loop;
    head.seconds = head_s;
    head.frames = std::max(plan.cover, closed_frames(wl.fps_nproc, head_s, nproc));
    const PhaseResult headline = run("headline", head);
    PhaseOptions cap = head;  // closed-loop capacity phases
    cap.open_loop = false;
    cap.frames = closed_frames(wl.fps_nproc, cap_s, nproc);
    const PhaseResult closed_n = wl.open_loop ? run("closed", cap) : headline;
    cap.workers = 1;
    cap.frames = closed_frames(wl.fps_1w, cap_s, 1);
    const PhaseResult closed_1 = run("closed-1w", cap);
    // Closed-loop latency: one frame in the service at a time, so a sample
    // is the zero-load response time (demap, quantize, submit, linger, a
    // one-frame decode, BCH) and does not depend on a queue the benchmark
    // sizes. Open loop: the headline phase's scheduled-time latency.
    PhaseResult latency_phase;
    if (!wl.open_loop) {
        PhaseOptions lo;
        lo.workers = 1;
        lo.window = 1;
        lo.frames = static_cast<std::size_t>(std::ceil(0.4 * S * 1e3 / wl.latency_ms_ref));
        latency_phase = run("latency", lo);
    }
    const PhaseResult& lat_src = wl.open_loop ? headline : latency_phase;

    // ---- traced run: the headline phase again with spans, then the
    // ---- direct single-thread chain
    std::vector<Metric> layer;
    DirectResult direct;
    PhaseResult traced;
    std::vector<LayerTime> direct_layers;
    std::vector<Span> service_spans;
    if (args.trace) {
        ctx.tracer.enable(Clock::now());
        PhaseOptions t = head;
        t.traced = true;
        traced = run("traced", t);
        service_spans = ctx.tracer.spans();
        direct = run_direct_phase(ctx, plan, 0.5 * S);
        auto all = ctx.tracer.spans();
        direct_layers = self_times(
            std::vector<Span>(all.begin() + static_cast<long>(service_spans.size()), all.end()));
    }

    // ---- correctness gates
    std::uint64_t attempted = 0, failed = 0, silent = 0, order = 0, lost = 0, dups = 0,
                  decode_fail = 0, rejected = 0;
    for (const auto& p : phases) {
        attempted += p.attempted;
        failed += p.failed();
        silent += p.silent_errors;
        order += p.order_violations;
        lost += p.lost;
        dups += p.duplicates;
        decode_fail += p.metrics.decode_failures;
        rejected += p.rejected;
    }
    silent += direct.silent_errors;
    const std::uint64_t mismatches = ctx.ref.mismatches();
    std::uint64_t pool_seen = 0;
    const double payload_fer = ctx.ref.payload_fer(&pool_seen);
    const bool correct = mismatches == 0 && silent == 0 && order == 0 && lost == 0 && dups == 0 &&
                         decode_fail == 0 && attempted > 0;

    // ---- end-to-end metrics
    const std::vector<double> lat = sorted(lat_src.latency_ms);
    const double tail_q = tail_quantile(lat.size());
    std::vector<Metric> e2e = {
        {"goodput_mbps", "Mbit/s", closed_n.goodput_mbps()},
        {"goodput_mbps_1w", "Mbit/s", closed_1.goodput_mbps()},
        {"latency_p50_ms", "ms", quantile(lat, 0.5)},
        {"latency_p75_ms", "ms", quantile(lat, 0.75)},
        {"setup_s", "s", setup.total()},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };

    // ---- per-layer metrics
    const double limit_miss_share =
        wl.open_loop ? ratio(static_cast<double>(headline.limit_misses),
                             static_cast<double>(headline.attempted))
                     : 0.0;
    const double failed_share = ratio(static_cast<double>(failed), static_cast<double>(attempted));
    if (args.trace)
        layer = per_layer_metrics({headline, lat_src, traced, closed_n, closed_1, direct, direct_layers,
                                   service_spans, setup, nproc, wl.open_loop, payload_fer,
                                   limit_miss_share, failed_share});

    // ---- report
    std::ostringstream prov;
    prov << "{\"workload\": \"" << wl.name << "\", \"seed\": " << args.seed
         << ", \"seconds\": " << S << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
         << PERFBENCH_BUILD_TYPE << "\", \"simd_build\": \"" << PERFBENCH_SIMD
         << "\", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": " << nproc
         << ", \"backends\": [";
    for (std::size_t i = 0; i < ctx.classes.size(); ++i)
        prov << (i ? ", " : "") << "\"" << json_escape(ctx.classes[i].backend) << "\"";
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(ctx.ref.digest()));
    prov << "], \"codeword_digest\": \"" << digest << "\", \"pool_frames_seen\": " << pool_seen
         << ", \"generate_s\": " << gen_s << "}";
    std::cout << "provenance " << prov.str() << "\n";

    print_table("end-to-end:", e2e);
    std::printf("  (latency_p99_ms %.6g ms, the p%.0f of %zu samples; payload_fer %.4f over %llu "
                "pool frames; limit_miss_share %.4f; failed_share %.4f)\n",
                quantile(lat, tail_q), tail_q * 100.0, lat.size(), payload_fer,
                static_cast<unsigned long long>(pool_seen), limit_miss_share, failed_share);
    if (args.trace) print_table("per-layer:", layer);
    if (!correct)
        std::printf("CORRECTNESS GATE FAILED: digest mismatches=%llu silent payload errors=%llu "
                    "order violations=%llu lost=%llu duplicates=%llu decode failures=%llu\n",
                    static_cast<unsigned long long>(mismatches),
                    static_cast<unsigned long long>(silent), static_cast<unsigned long long>(order),
                    static_cast<unsigned long long>(lost), static_cast<unsigned long long>(dups),
                    static_cast<unsigned long long>(decode_fail));
    std::fflush(stdout);

    if (!args.out_dir.empty()) {
        const std::string stem = args.out_dir + "/" + wl.name + "-seed" +
                                 std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
        std::ofstream res(stem + ".json");
        res << "{\"provenance\": " << prov.str() << ", \"end_to_end\": " << metrics_json(e2e)
            << ", \"per_layer\": " << metrics_json(layer) << ", \"correct\": "
            << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"rejected\": " << rejected << "}\n";
        if (args.trace && !ctx.tracer.write_chrome_json(stem + ".trace.json"))
            std::cerr << "warning: could not write " << stem << ".trace.json\n";
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics_json(args.trace ? layer : e2e) << "}" << std::endl;
    return correct ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
}
