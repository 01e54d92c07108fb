#include "chain.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "quant/fixed.hpp"
#include "service/service.hpp"

namespace perfbench {

namespace {

double secs(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

void demap(const ClassRt& c, const Frame& f, double* llr) {
    const int bps = c.constellation->bits_per_symbol();
    const std::size_t symbols = f.iq.size() / 2;
    for (std::size_t s = 0; s < symbols; ++s)
        c.constellation->demap_maxlog(f.iq[2 * s], f.iq[2 * s + 1], c.sigma,
                                      llr + s * static_cast<std::size_t>(bps));
}

/// Quantizes in place; the engine receives the quantized values on the LLR
/// grid (its own input quantization is then the identity).
void quantize(const quant::QuantSpec& q, double* llr, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) llr[i] = quant::dequantize(quant::quantize(llr[i], q), q);
}

std::uint64_t digest_bits(const util::BitVec& v) {
    std::uint64_t h = mix(0x6c64706364ULL, v.size());
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (v.get(i)) w |= std::uint64_t{1} << (i & 63);
        if ((i & 63) == 63) {
            h = mix(h, w);
            w = 0;
        }
    }
    return mix(h, w) | 1;  // never 0, which marks an unset reference slot
}

/// True iff the first `k` bits (the payload) of `decoded` match `sent`.
bool payload_matches(const util::BitVec& decoded, const util::BitVec& sent, int k) {
    if (decoded == sent) return true;
    if (decoded.size() != sent.size()) return false;
    for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i)
        if (decoded.get(i) != sent.get(i)) return false;
    return true;
}

/// Callback-side state of one service phase. Slots indexed by arrival are
/// written once by the producer before submit() (which orders them before
/// the callback) or once by the callback that owns the arrival.
struct PhaseState {
    Context& ctx;
    const Plan& plan;
    const PhaseOptions& opt;
    Clock::time_point epoch;
    std::vector<double> t_send, t_done;
    std::unique_ptr<std::atomic<std::uint8_t>[]> delivered;
    std::vector<std::vector<std::uint32_t>> accepted_slots;  // stream → seq → arrival
    std::unique_ptr<std::atomic<std::uint64_t>[]> next_seq;  // per stream
    std::atomic<std::uint64_t> duplicates{0}, order_violations{0}, silent_errors{0},
        payload_bits_ok{0};
    std::atomic<bool> corrupt_payload_pending{false}, corrupt_digest_pending{false};
    std::atomic<std::int64_t> outstanding{0}, peak_outstanding{0};
    std::mutex window_mu;  // with window_cv: the producer waits for room in opt.window
    std::condition_variable window_cv;

    /// Producer side: one more frame in the service.
    void entered() {
        const std::int64_t now = ++outstanding;
        std::int64_t peak = peak_outstanding.load();
        while (now > peak && !peak_outstanding.compare_exchange_weak(peak, now)) {
        }
    }

    /// One frame fewer in the service (delivered, or not accepted).
    void left() {
        if (opt.window == 0) {
            --outstanding;
            return;
        }
        {
            const std::lock_guard<std::mutex> lock(window_mu);
            --outstanding;
        }
        window_cv.notify_one();
    }

    /// Producer side: blocks until fewer than opt.window frames are in the
    /// service (returns at once when there is no window).
    void wait_for_room() {
        if (opt.window == 0) return;
        std::unique_lock<std::mutex> lock(window_mu);
        window_cv.wait(lock, [&] {
            return outstanding.load() < static_cast<std::int64_t>(opt.window);
        });
    }

    PhaseState(Context& c, const Plan& p, const PhaseOptions& o)
        : ctx(c), plan(p), opt(o), t_send(p.arrivals.size(), -1.0),
          t_done(p.arrivals.size(), -1.0),
          delivered(new std::atomic<std::uint8_t>[p.arrivals.size()]()),
          next_seq(new std::atomic<std::uint64_t>[p.by_stream.size()]()) {
        accepted_slots.reserve(p.by_stream.size());
        for (const auto& s : p.by_stream) accepted_slots.emplace_back(s.size(), 0);
        corrupt_payload_pending = o.corrupt_payload;
        corrupt_digest_pending = o.corrupt_digest;
    }

    void on_result(std::uint32_t s, const service::StreamResult& r) {
        const auto t_cb = Clock::now();
        if (r.seq != next_seq[s].load(std::memory_order_relaxed)) ++order_violations;
        next_seq[s].store(r.seq + 1, std::memory_order_relaxed);
        if (r.seq >= accepted_slots[s].size()) {
            ++order_violations;
            return;
        }
        const std::uint32_t i = accepted_slots[s][r.seq];
        if (delivered[i].exchange(1) != 0) {
            ++duplicates;
            return;
        }
        const Arrival& a = plan.arrivals[i];
        const ClassRt& c = ctx.classes[a.cls];
        const Frame& f = c.pool[a.pool];
        const auto t_b0 = Clock::now();
        auto b = c.bch->decode(r.result.info_bits);
        const auto t_b1 = Clock::now();
        if (corrupt_payload_pending.exchange(false)) b.codeword.flip(0);
        const bool ok = payload_matches(b.codeword, f.bch_codeword, c.k_bch());
        if (ok) {
            payload_bits_ok += static_cast<std::uint64_t>(c.k_bch());
        } else if (b.success) {
            ++silent_errors;
        }
        std::uint64_t d = digest_bits(r.result.codeword);
        if (corrupt_digest_pending.exchange(false)) d ^= 2;
        ctx.ref.check(a.cls, a.pool, d, ok);
        const auto t_end = Clock::now();
        t_done[i] = secs(epoch, t_end);
        if (opt.traced) {
            const std::uint32_t cb = ctx.tracer.reserve();
            ctx.tracer.add("bch", cb, i, t_b0, t_b1);
            ctx.tracer.add_reserved(cb, "callback", 0, i, t_cb, t_end);
        }
        left();
    }
};

/// Gives every worker a full batch of every class before timing: a worker's
/// first decodes of a class build its engine and size the lane blocks and
/// result storage, which takes far longer than a steady-state decode. A
/// burst of workers · preferred_batch frames is what reaches every worker
/// (an idle worker claims a full block at once, or waits for linger and
/// then takes everything pending). A windowed phase only ever decodes
/// batches of up to `window` frames, so a burst of that many is enough.
void warm_up(service::DecodeService& svc, Context& ctx, const std::vector<service::ClassId>& ids,
             const PhaseOptions& opt) {
    std::vector<double> llr;
    for (std::size_t c = 0; c < ctx.classes.size(); ++c) {
        const ClassRt& cls = ctx.classes[c];
        const auto sid = svc.open_stream(ids[c], [](const service::StreamResult&) {});
        llr.resize(static_cast<std::size_t>(cls.n()));
        const std::size_t frames =
            opt.window ? opt.window
                       : std::size_t{opt.workers} * static_cast<std::size_t>(cls.preferred_batch);
        for (std::size_t j = 0; j < frames; ++j) {
            demap(cls, cls.pool[j % cls.pool.size()], llr.data());
            svc.submit(sid, llr);
        }
        svc.drain();
    }
}

}  // namespace

void Reference::init(const std::vector<ClassRt>& classes) {
    slots_.clear();
    for (const auto& c : classes) {
        Slots s;
        s.size = c.pool.size();
        s.digest.reset(new std::atomic<std::uint64_t>[s.size]());
        s.payload.reset(new std::atomic<std::uint8_t>[s.size]());
        slots_.push_back(std::move(s));
    }
}

void Reference::check(std::size_t cls, std::size_t pool, std::uint64_t digest, bool payload_ok) {
    Slots& s = slots_[cls];
    std::uint64_t expect = 0;
    bool match = s.digest[pool].compare_exchange_strong(expect, digest) || expect == digest;
    std::uint8_t p_expect = 0;
    const std::uint8_t p = payload_ok ? 1 : 2;
    match = (s.payload[pool].compare_exchange_strong(p_expect, p) || p_expect == p) && match;
    if (!match) ++mismatches_;
}

double Reference::payload_fer(std::uint64_t* seen) const {
    std::uint64_t n = 0, bad = 0;
    for (const auto& s : slots_)
        for (std::size_t i = 0; i < s.size; ++i) {
            const auto p = s.payload[i].load();
            n += p != 0;
            bad += p == 2;
        }
    if (seen) *seen = n;
    return n ? static_cast<double>(bad) / static_cast<double>(n) : 0.0;
}

std::uint64_t Reference::digest() const {
    std::uint64_t h = 0;
    for (const auto& s : slots_)
        for (std::size_t i = 0; i < s.size; ++i) h = mix(h, s.digest[i].load());
    return h;
}

PhaseResult run_service_phase(Context& ctx, const Plan& plan, const PhaseOptions& opt) {
    service::ServiceConfig cfg;
    cfg.workers = opt.workers;
    // Closed loop: room for one full batch per worker and class, so every
    // worker can claim a full lane block while the producer refills.
    std::size_t batches = 0;
    for (const auto& c : ctx.classes) batches += static_cast<std::size_t>(c.preferred_batch);
    cfg.queue_capacity = opt.open_loop ? ctx.wl.queue_capacity : opt.workers * batches;
    cfg.admission = opt.open_loop ? service::Admission::Reject : service::Admission::Block;
    // Closed-loop capacity phases: a linger well above the time the producer
    // takes to submit one burst (copying in a lane block of long frames takes
    // 5-30 ms), so batch fill does not hang on that race. The open loop and
    // the latency window keep the default linger, which is part of the
    // response time they measure.
    if (!opt.open_loop && opt.window == 0) cfg.max_linger = std::chrono::milliseconds(100);
    PhaseState st(ctx, plan, opt);  // declared first: outlives the workers that call into it
    service::DecodeService svc(cfg);
    std::vector<service::ClassId> ids;
    for (const auto& c : ctx.classes) ids.push_back(svc.add_class(*c.code, c.def.spec));
    warm_up(svc, ctx, ids, opt);
    const service::ServiceMetrics before = svc.metrics();

    std::vector<service::StreamId> sid;
    for (std::uint32_t s = 0; s < plan.by_stream.size(); ++s)
        sid.push_back(svc.open_stream(ids[plan.stream_class[s]],
                                      [&st, s](const service::StreamResult& r) {
                                          st.on_result(s, r);
                                      }));

    PhaseResult res;
    std::vector<std::uint64_t> accepted_count(plan.by_stream.size(), 0);
    std::size_t max_n = 0, max_batch = 1;
    for (const auto& c : ctx.classes) {
        max_n = std::max(max_n, static_cast<std::size_t>(c.n()));
        max_batch = std::max(max_batch, static_cast<std::size_t>(c.preferred_batch));
    }
    // Open loop: one frame per arrival. Closed loop: the producer demaps a
    // lane block's worth of frames, then submits them back to back, so idle
    // workers claim full blocks from the start instead of linger-flushed
    // fragments of a queue that fills one demap at a time. Windowed: one
    // frame whenever the window has room.
    const std::size_t burst = opt.open_loop ? 1 : opt.window ? 1 : max_batch;
    std::vector<double> llr(burst * max_n);
    st.epoch = Clock::now();
    for (std::size_t i = 0; i < plan.arrivals.size();) {
        if (opt.open_loop) {
            const double due = plan.arrivals[i].t_sched;
            if (due > opt.seconds) break;
            std::this_thread::sleep_until(st.epoch + std::chrono::duration_cast<Clock::duration>(
                                                         std::chrono::duration<double>(due)));
        } else if (i >= opt.frames) {
            break;
        } else {
            st.wait_for_room();
        }
        const std::size_t end =
            std::min({i + burst, plan.arrivals.size(), opt.open_loop ? i + 1 : opt.frames});
        for (std::size_t j = i; j < end; ++j) {
            const Arrival& a = plan.arrivals[j];
            const ClassRt& c = ctx.classes[a.cls];
            double* slot = llr.data() + (j - i) * max_n;
            const auto t0 = Clock::now();
            st.t_send[j] = opt.open_loop ? a.t_sched : secs(st.epoch, t0);
            if (opt.open_loop) res.lateness_ms.push_back((secs(st.epoch, t0) - a.t_sched) * 1e3);
            demap(c, c.pool[a.pool], slot);
            const auto t1 = Clock::now();
            quantize(c.def.spec.quant, slot, static_cast<std::size_t>(c.n()));
            if (opt.traced) {
                ctx.tracer.add("demap", 0, j, t0, t1);
                ctx.tracer.add("quantize", 0, j, t1, Clock::now());
            }
        }
        for (std::size_t j = i; j < end; ++j) {
            const Arrival& a = plan.arrivals[j];
            const auto n = static_cast<std::size_t>(ctx.classes[a.cls].n());
            st.accepted_slots[a.stream][accepted_count[a.stream]] = static_cast<std::uint32_t>(j);
            st.entered();  // before submit: the callback may run before submit returns
            const auto t0 = Clock::now();
            const auto status = svc.submit(
                sid[a.stream], std::span<const double>(llr.data() + (j - i) * max_n, n));
            if (opt.traced) ctx.tracer.add("submit", 0, j, t0, Clock::now());
            ++res.attempted;
            if (status == service::SubmitStatus::Accepted) {
                ++accepted_count[a.stream];
                ++res.accepted;
            } else {
                st.left();
                ++res.rejected;
            }
        }
        i = end;
    }
    svc.drain();
    const service::ServiceMetrics after = svc.metrics();
    svc.stop();

    res.metrics = after;
    res.metrics.batches = after.batches - before.batches;
    res.metrics.batch_frames = after.batch_frames - before.batch_frames;
    res.metrics.batch_slots = after.batch_slots - before.batch_slots;
    res.metrics.full_batches = after.full_batches - before.full_batches;
    res.metrics.linger_batches = after.linger_batches - before.linger_batches;
    res.metrics.decode_failures = after.decode_failures - before.decode_failures;
    res.metrics.ordering_violations = after.ordering_violations - before.ordering_violations;

    double first = -1.0, last = 0.0;
    const double limit_ms = ctx.wl.limit_ms;
    for (std::size_t i = 0; i < plan.arrivals.size(); ++i) {
        if (st.t_send[i] < 0) continue;
        if (first < 0) first = st.t_send[i];
        if (st.t_done[i] < 0) continue;
        ++res.delivered;
        last = std::max(last, st.t_done[i]);
        const double ms = (st.t_done[i] - st.t_send[i]) * 1e3;
        res.latency_ms.push_back(ms);
        if (opt.open_loop && ms > limit_ms) ++res.limit_misses;
    }
    res.lost = res.accepted - std::min(res.accepted, res.delivered);
    if (opt.open_loop) res.limit_misses += res.rejected + res.lost;
    res.peak_outstanding = static_cast<std::uint64_t>(st.peak_outstanding.load());
    res.duplicates = st.duplicates;
    res.order_violations = st.order_violations + res.metrics.ordering_violations;
    res.silent_errors = st.silent_errors;
    res.payload_bits_ok = st.payload_bits_ok;
    res.elapsed_s = first >= 0 ? last - first : 0.0;
    return res;
}

DirectResult run_direct_phase(Context& ctx, const Plan& plan, double seconds) {
    struct Lane {
        std::unique_ptr<core::Engine> engine;
        std::vector<double> llr;
        std::vector<core::DecodeResult> out;
        std::vector<std::uint32_t> pending;
        std::size_t batch = 1;
        std::uint64_t batches = 0;
    };
    std::vector<Lane> lanes;
    for (const auto& c : ctx.classes) {
        Lane l;
        l.engine = core::make_engine(*c.code, c.def.spec);
        l.batch = static_cast<std::size_t>(std::max(1, l.engine->preferred_batch()));
        l.llr.resize(l.batch * static_cast<std::size_t>(c.n()));
        l.out.resize(l.batch);
        lanes.push_back(std::move(l));
    }
    DirectResult res;
    Tracer& tr = ctx.tracer;

    auto run_batch = [&](std::size_t ci) {
        Lane& l = lanes[ci];
        const ClassRt& c = ctx.classes[ci];
        const std::size_t n = static_cast<std::size_t>(c.n());
        const std::size_t b = l.pending.size();
        const std::uint64_t frame0 = (static_cast<std::uint64_t>(ci) << 32) | l.pending.front();
        const std::uint32_t chain = tr.reserve();
        const auto t_chain = Clock::now();
        for (std::size_t j = 0; j < b; ++j) {
            const std::uint64_t fid = (static_cast<std::uint64_t>(ci) << 32) | l.pending[j];
            const auto t0 = Clock::now();
            demap(c, c.pool[l.pending[j]], l.llr.data() + j * n);
            const auto t1 = Clock::now();
            quantize(c.def.spec.quant, l.llr.data() + j * n, n);
            const auto t2 = Clock::now();
            tr.add("demap", chain, fid, t0, t1);
            tr.add("quantize", chain, fid, t1, t2);
        }
        const auto t_d0 = Clock::now();
        l.engine->decode_batch(std::span<const double>(l.llr.data(), b * n),
                               std::span<core::DecodeResult>(l.out.data(), b));
        tr.add("decode", chain, frame0, t_d0, Clock::now());
        for (std::size_t j = 0; j < b; ++j) {
            const std::uint64_t fid = (static_cast<std::uint64_t>(ci) << 32) | l.pending[j];
            const Frame& f = c.pool[l.pending[j]];
            const core::DecodeResult& r = l.out[j];
            const auto t0 = Clock::now();
            const auto bo = c.bch->decode(r.info_bits);
            const auto t1 = Clock::now();
            tr.add("bch", chain, fid, t0, t1);
            if (bo.success && bo.errors_corrected == 0) {
                ++res.bch_clean;
                res.bch_clean_s += secs(t0, t1);
            } else {
                bo.success ? ++res.bch_corrected : ++res.bch_failed;
                res.bch_correct_s += secs(t0, t1);
            }
            const bool ok = payload_matches(bo.codeword, f.bch_codeword, c.k_bch());
            if (!ok && bo.success) ++res.silent_errors;
            ctx.ref.check(ci, l.pending[j], digest_bits(r.codeword), ok);
            res.iterations += static_cast<std::uint64_t>(r.iterations);
            res.converged += r.converged ? 1 : 0;
            ++res.frames;
        }
        tr.add_reserved(chain, "chain", 0, frame0, t_chain, Clock::now());
        l.pending.clear();
        ++l.batches;
    };

    const auto epoch = Clock::now();
    for (std::size_t i = 0;; ++i) {
        const bool all_ran = std::all_of(lanes.begin(), lanes.end(),
                                         [](const Lane& l) { return l.batches > 0; });
        if (all_ran && secs(epoch, Clock::now()) >= seconds) break;
        const Arrival& a = plan.arrivals[i % plan.arrivals.size()];
        Lane& l = lanes[a.cls];
        l.pending.push_back(a.pool);
        if (l.pending.size() == l.batch) run_batch(a.cls);
    }
    return res;
}

}  // namespace perfbench
