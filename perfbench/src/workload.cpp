#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "comm/modem.hpp"
#include "enc/encoder.hpp"

namespace perfbench {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t Rng::next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Rng::gaussian() {
    if (have_) {
        have_ = false;
        return cached_;
    }
    double u = 0.0, v = 0.0, s = 0.0;
    do {
        u = 2.0 * uniform() - 1.0;
        v = 2.0 * uniform() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    cached_ = v * f;
    have_ = true;
    return u * f;
}

namespace {

using code::CodeRate;
using code::FrameSize;
using core::DecoderBackend;
using core::Schedule;

core::EngineSpec minsum_spec(Schedule schedule, quant::QuantSpec q,
                             DecoderBackend backend = DecoderBackend::Simd) {
    core::EngineSpec spec;
    spec.arith = core::Arithmetic::Fixed;
    spec.quant = q;
    spec.config.algorithm = core::Algorithm::MinSum;  // default rule: exact (LUT) check update
    spec.config.schedule = schedule;
    spec.config.backend = backend;
    spec.config.max_iterations = 30;
    spec.config.early_stop = true;
    return spec;
}

comm::Constellation qpsk() {
    // Gray QPSK: first bit → sign of I, second bit → sign of Q.
    return comm::Constellation("QPSK", {{1, 1}, {1, -1}, {-1, 1}, {-1, -1}});
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

WorkloadDef make_workload(const std::string& name) {
    WorkloadDef wl;
    wl.name = name;
    if (name == "bulk-long-8psk") {
        wl.classes = {{CodeRate::R3_5, FrameSize::Long, Mod::Psk8,
                       minsum_spec(Schedule::ZigzagForward, quant::kQuant6), 4.3}};
        wl.streams = 4;
        wl.pool_per_class = 96;
        wl.fps_nproc = 52.0;
        wl.fps_1w = 19.0;
        wl.latency_ms_ref = 250.0;
    } else if (name == "edge-long-qpsk") {
        wl.classes = {{CodeRate::R1_2, FrameSize::Long, Mod::Qpsk,
                       minsum_spec(Schedule::ZigzagForward, quant::kQuant6), 0.9}};
        wl.streams = 4;
        wl.pool_per_class = 96;
        wl.fps_nproc = 48.0;
        wl.fps_1w = 16.0;
        wl.latency_ms_ref = 340.0;
    } else if (name == "stream-short-mixed") {
        wl.classes = {
            {CodeRate::R1_4, FrameSize::Short, Mod::Qpsk,
             minsum_spec(Schedule::ZigzagForward, quant::kQuant6), 4.0},
            {CodeRate::R1_2, FrameSize::Short, Mod::Qpsk,
             minsum_spec(Schedule::Layered, quant::kQuant5), 3.0},
            {CodeRate::R3_5, FrameSize::Short, Mod::Psk8,
             minsum_spec(Schedule::ZigzagSegmented, quant::kQuant6), 5.5},
            {CodeRate::R3_4, FrameSize::Short, Mod::Psk8,
             minsum_spec(Schedule::TwoPhase, quant::kQuant5), 6.0},
            {CodeRate::R8_9, FrameSize::Short, Mod::Psk8,
             minsum_spec(Schedule::ZigzagMap, quant::kQuant6), 7.0},
            {CodeRate::R1_2, FrameSize::Short, Mod::Qpsk,
             minsum_spec(Schedule::ZigzagForward, quant::kQuant6, DecoderBackend::Scalar), 3.5},
        };
        wl.open_loop = true;
        wl.rate_fps = 40.0;
        wl.limit_ms = 80.0;
        wl.streams = 240;
        wl.pool_per_class = 128;
        wl.queue_capacity = 256;
        wl.fps_nproc = 420.0;
        wl.fps_1w = 125.0;
    } else if (name == "selftest-short") {
        // Seconds-long smoke workload for selftest.py: two short classes.
        wl.classes = {
            {CodeRate::R1_2, FrameSize::Short, Mod::Qpsk,
             minsum_spec(Schedule::ZigzagForward, quant::kQuant6), 3.5},
            {CodeRate::R3_5, FrameSize::Short, Mod::Psk8,
             minsum_spec(Schedule::Layered, quant::kQuant5, DecoderBackend::Scalar), 5.5},
        };
        wl.open_loop = true;
        wl.rate_fps = 100.0;
        wl.limit_ms = 100.0;
        wl.streams = 8;
        wl.pool_per_class = 8;
        wl.queue_capacity = 64;
        wl.fps_nproc = 300.0;
        wl.fps_1w = 100.0;
    } else {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    return wl;
}

std::vector<ClassRt> build_classes(const WorkloadDef& wl, double& code_s, double& bch_s) {
    code_s = 0.0;
    bch_s = 0.0;
    std::vector<ClassRt> out;
    for (const auto& def : wl.classes) {
        ClassRt c;
        c.def = def;
        auto t0 = std::chrono::steady_clock::now();
        c.code = std::make_unique<code::Dvbs2Code>(code::standard_params(def.rate, def.frame));
        code_s += seconds_since(t0);
        t0 = std::chrono::steady_clock::now();
        // EN 302 307 Tables 5a/5b: long frames use GF(2^16), short GF(2^14),
        // both with N_bch = K_ldpc.
        if (def.frame == FrameSize::Long) {
            const auto p = bch::dvbs2_bch_params(def.rate);
            c.bch = std::make_unique<bch::BchCode>(16, p.t, p.n_bch);
        } else {
            c.bch = std::make_unique<bch::BchCode>(14, 12, c.code->k());
        }
        bch_s += seconds_since(t0);
        c.constellation = std::make_unique<comm::Constellation>(
            def.mod == Mod::Psk8 ? comm::Constellation::psk8() : qpsk());
        c.sigma = comm::noise_sigma(def.ebn0_db, c.code->params().rate(),
                                    def.mod == Mod::Psk8 ? comm::Modulation::Psk8
                                                         : comm::Modulation::Qpsk);
        out.push_back(std::move(c));
    }
    return out;
}

void generate_pools(std::vector<ClassRt>& classes, int pool_per_class, std::uint64_t seed,
                    unsigned threads) {
    struct Job {
        std::size_t cls;
        int idx;
    };
    std::vector<Job> jobs;
    for (std::size_t c = 0; c < classes.size(); ++c) {
        classes[c].pool.assign(static_cast<std::size_t>(pool_per_class), Frame{});
        for (int i = 0; i < pool_per_class; ++i) jobs.push_back({c, i});
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t j = next++; j < jobs.size(); j = next++) {
            ClassRt& c = classes[jobs[j].cls];
            Rng rng(mix(mix(seed, jobs[j].cls + 1), static_cast<std::uint64_t>(jobs[j].idx)));
            util::BitVec payload(static_cast<std::size_t>(c.k_bch()));
            for (std::size_t b = 0; b < payload.size(); ++b)
                payload.set(b, (rng.next() >> 63) != 0);
            Frame f;
            f.bch_codeword = c.bch->encode(payload);
            const util::BitVec cw = enc::Encoder(*c.code).encode(f.bch_codeword);
            const int bps = c.constellation->bits_per_symbol();
            const std::size_t symbols = cw.size() / static_cast<std::size_t>(bps);
            f.iq.resize(2 * symbols);
            for (std::size_t s = 0; s < symbols; ++s) {
                const auto p = c.constellation->map(cw, s * static_cast<std::size_t>(bps));
                f.iq[2 * s] = static_cast<float>(p.i + c.sigma * rng.gaussian());
                f.iq[2 * s + 1] = static_cast<float>(p.q + c.sigma * rng.gaussian());
            }
            c.pool[static_cast<std::size_t>(jobs[j].idx)] = std::move(f);
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
    worker();
    for (auto& t : pool) t.join();
}

Plan make_plan(const WorkloadDef& wl, const std::vector<ClassRt>& classes, std::size_t count,
               std::uint64_t seed) {
    Plan plan;
    const auto nstreams = static_cast<std::uint32_t>(wl.streams);
    const auto ncls = static_cast<std::uint32_t>(classes.size());
    if (nstreams < ncls)
        throw std::runtime_error("workload " + wl.name + " has fewer streams than classes");
    plan.stream_class.resize(nstreams);
    for (std::uint32_t s = 0; s < nstreams; ++s) plan.stream_class[s] = s % ncls;
    plan.by_stream.resize(nstreams);
    plan.arrivals.reserve(count);
    std::vector<std::uint32_t> cursor(ncls, 0);
    std::size_t uncovered = 0;
    for (const auto& c : classes) uncovered += c.pool.size();
    Rng rng(mix(seed, 0xa11a1ULL));
    std::vector<std::uint32_t> round(ncls);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        if (i % ncls == 0) {  // next round: a fresh Fisher-Yates shuffle of the classes
            for (std::uint32_t c = 0; c < ncls; ++c) round[c] = c;
            for (std::uint32_t c = ncls - 1; c > 0; --c)
                std::swap(round[c], round[rng.next() % (c + 1)]);
        }
        Arrival a;
        a.cls = round[i % ncls];
        const std::uint32_t class_streams = (nstreams - a.cls + ncls - 1) / ncls;  // s % ncls == cls
        a.stream = a.cls + ncls * static_cast<std::uint32_t>(rng.next() % class_streams);
        const auto pool_size = static_cast<std::uint32_t>(classes[a.cls].pool.size());
        a.pool = cursor[a.cls] % pool_size;
        if (cursor[a.cls] < pool_size && --uncovered == 0) plan.cover = i + 1;
        ++cursor[a.cls];
        if (wl.open_loop) {
            t += -std::log(1.0 - rng.uniform()) / wl.rate_fps;
            a.t_sched = t;
        }
        plan.by_stream[a.stream].push_back(static_cast<std::uint32_t>(i));
        plan.arrivals.push_back(a);
    }
    if (uncovered != 0)
        throw std::runtime_error("plan of " + std::to_string(count) +
                                 " arrivals does not cover every pool frame");
    return plan;
}

}  // namespace perfbench
