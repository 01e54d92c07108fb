#include "trace.hpp"

#include <cstdio>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

std::uint32_t thread_tag() {
    return static_cast<std::uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) &
                                      0xffffu);
}

}  // namespace

void Tracer::enable(Clock::time_point epoch) {
    enabled_ = true;
    epoch_ = epoch;
    spans_.reserve(1 << 16);
}

std::uint32_t Tracer::reserve() {
    if (!enabled_) return 0;
    const std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
}

std::uint32_t Tracer::add(const char* name, std::uint32_t parent, std::uint64_t frame,
                          Clock::time_point t0, Clock::time_point t1) {
    if (!enabled_) return 0;
    const std::lock_guard<std::mutex> lock(mu_);
    const std::uint32_t id = next_id_++;
    spans_.push_back({name, id, parent, frame, thread_tag(), t0, t1});
    return id;
}

void Tracer::add_reserved(std::uint32_t id, const char* name, std::uint32_t parent,
                          std::uint64_t frame, Clock::time_point t0, Clock::time_point t1) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, id, parent, frame, thread_tag(), t0, t1});
}

std::vector<Span> Tracer::spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
    const auto all = spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        const double ts = std::chrono::duration<double, std::micro>(s.t0 - epoch_).count();
        const double dur = std::chrono::duration<double, std::micro>(s.t1 - s.t0).count();
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%u,\"parent\":%u,\"frame\":%llu}}%s\n",
                     s.name, s.thread, ts, dur, s.id, s.parent,
                     static_cast<unsigned long long>(s.frame), i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

std::vector<LayerTime> self_times(const std::vector<Span>& spans) {
    std::unordered_map<std::uint32_t, double> child_time;
    for (const Span& s : spans)
        if (s.parent != 0) child_time[s.parent] += s.seconds();
    std::map<std::string, LayerTime> by_name;
    for (const Span& s : spans) {
        LayerTime& l = by_name[s.name];
        l.name = s.name;
        l.total_s += s.seconds();
        const auto it = child_time.find(s.id);
        l.self_s += s.seconds() - (it == child_time.end() ? 0.0 : it->second);
    }
    std::vector<LayerTime> out;
    for (auto& [name, l] : by_name) out.push_back(l);
    return out;
}

}  // namespace perfbench
