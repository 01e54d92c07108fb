// In-memory span recorder of the traced run.
//
// A span is one call into a layer: name, start, end, parent span and frame
// id. Spans are appended under a mutex (a few per frame, so contention is
// negligible next to a decode) and written out as Chrome trace-event JSON
// when the run ends. When disabled, recording costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
    const char* name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t frame = 0;   ///< frame id (arrival index or pool index)
    std::uint32_t thread = 0;
    Clock::time_point t0, t1;

    double seconds() const { return std::chrono::duration<double>(t1 - t0).count(); }
};

class Tracer {
public:
    void enable(Clock::time_point epoch);

    /// Records a finished span and returns its id (0 when disabled).
    std::uint32_t add(const char* name, std::uint32_t parent, std::uint64_t frame,
                      Clock::time_point t0, Clock::time_point t1);
    /// Reserves an id for a span whose children are recorded before it ends.
    std::uint32_t reserve();
    /// Records a span under a reserved id.
    void add_reserved(std::uint32_t id, const char* name, std::uint32_t parent,
                      std::uint64_t frame, Clock::time_point t0, Clock::time_point t1);

    /// Snapshot of every span recorded so far.
    std::vector<Span> spans() const;

    /// Writes Chrome trace-event JSON ("X" events; args carry id, parent and
    /// frame) to `path`. Returns false on an I/O error.
    bool write_chrome_json(const std::string& path) const;

private:
    bool enabled_ = false;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;  // guarded by mu_
    std::uint32_t next_id_ = 1;  // guarded by mu_
};

/// Self time per span name: duration minus the time covered by its direct
/// children (children never overlap their siblings in this benchmark).
struct LayerTime {
    std::string name;
    double total_s = 0.0;
    double self_s = 0.0;
};
std::vector<LayerTime> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
