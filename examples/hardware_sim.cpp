// Hardware architecture walkthrough: builds the FU mapping for a rate,
// optimizes the RAM addressing with simulated annealing, runs the
// cycle-driven RTL model on a noisy frame, verifies bit-exactness against
// the algorithmic fixed-point decoder, and prints cycle/throughput/area
// figures — a compressed tour of paper Sections 3-5.
//
//   ./hardware_sim [--rate=1/2] [--ebn0=1.5] [--anneal-iters=2000] [--seed=5]
#include <iostream>

#include "arch/anneal.hpp"
#include "arch/area.hpp"
#include "arch/energy.hpp"
#include "arch/mapping.hpp"
#include "arch/rtl_model.hpp"
#include "arch/stream.hpp"
#include "arch/throughput.hpp"
#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "core/engine.hpp"
#include "enc/encoder.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace dvbs2;

namespace {

code::CodeRate parse_rate(const std::string& s) {
    for (auto r : code::all_rates())
        if (code::to_string(r) == s) return r;
    throw std::runtime_error("unknown rate " + s);
}

}  // namespace

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"rate", "ebn0", "anneal-iters", "seed"});
    const auto rate = parse_rate(args.get("rate", "1/2"));
    const double ebn0 = args.get_double("ebn0", 1.5);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));

    const code::Dvbs2Code ldpc(code::standard_params(rate));
    arch::HardwareMapping mapping(ldpc);
    std::cout << "mapping: " << mapping.ram_words() << " address/shuffle words ("
              << mapping.slots_per_cn() << " per check node), FU load " << mapping.fu_load()
              << " edges per half-iteration\n";

    // Address-scheme optimization (paper Sec. 4).
    arch::AnnealConfig acfg;
    acfg.iterations = static_cast<int>(args.get_int("anneal-iters", 2000));
    const auto ares = arch::anneal_addressing(mapping, acfg);
    std::cout << "annealing: peak write buffer " << ares.before.peak_buffer << " -> "
              << ares.after.peak_buffer << " words (" << ares.moves_accepted << "/"
              << ares.moves_tried << " moves accepted)\n";

    // A noisy frame through the RTL model.
    const enc::Encoder encoder(ldpc);
    const util::BitVec info = enc::random_info_bits(ldpc.k(), seed);
    comm::AwgnModem modem(comm::Modulation::Bpsk, seed + 3);
    const double sigma = comm::noise_sigma(ebn0, ldpc.params().rate(), comm::Modulation::Bpsk);
    const auto llr = modem.transmit(encoder.encode(info), sigma);

    arch::RtlConfig rc;
    rc.decoder.max_iterations = 30;
    arch::RtlDecoder rtl(ldpc, mapping, rc);
    const auto res = rtl.decode(llr);
    std::cout << "RTL decode @ " << ebn0 << " dB: "
              << (res.converged ? "converged" : "NOT converged") << " after " << res.iterations
              << " iterations, "
              << util::BitVec::hamming_distance(res.info_bits, info) << " info errors\n";

    // Bit-exactness against the algorithmic fixed-point reference.
    core::DecoderConfig ref_cfg;
    ref_cfg.schedule = core::Schedule::ZigzagSegmented;
    ref_cfg.max_iterations = 30;
    const auto ref = core::make_engine(ldpc, {core::Arithmetic::Fixed, ref_cfg, rc.spec});
    ref->set_cn_order(mapping.extract_cn_order());
    const auto ref_res = ref->decode(llr);
    std::cout << "bit-exact vs fixed-point reference: "
              << (res.info_bits == ref_res.info_bits && res.iterations == ref_res.iterations
                      ? "YES"
                      : "NO")
              << "\n";

    // Cycle accounting and Eq. 8 throughput.
    const auto st = rtl.iteration_stats();
    std::cout << "cycles/iteration: " << st.cycles_per_iteration() << " (VN "
              << st.variable_phase.total_cycles << " + CN " << st.check_phase.total_cycles
              << "), peak buffer " << st.peak_buffer() << " words\n";
    const auto tp = arch::throughput(ldpc.params(), arch::ThroughputConfig{});
    std::cout << "Eq. 8 @ 270 MHz, 30 iters: " << tp.info_throughput_bps / 1e6
              << " Mbit/s info, " << tp.coded_throughput_bps / 1e6 << " Mbit/s coded\n";

    // Streamed operation (Eq. 7 I/O overlap) and energy.
    arch::StreamConfig scfg;
    const auto stream = arch::simulate_stream(mapping, scfg, 6);
    std::cout << "stream of 6 frames: steady " << stream.steady_info_bps / 1e6
              << " Mbit/s info, first-frame latency "
              << stream.first_frame_latency_s * 1e6 << " us, core idle "
              << stream.core_idle_cycles << " cycles\n";
    const auto energy = arch::energy_model(mapping, rc.spec, 30);
    std::cout << "energy/block: " << energy.total_nj() / 1e3 << " uJ ("
              << util::TextTable::num(100.0 * energy.memory_nj / energy.total_nj(), 0)
              << "% memory), " << energy.nj_per_info_bit << " nJ/info bit\n";

    // Area of the full multi-rate decoder.
    std::vector<code::CodeParams> all;
    for (auto r : code::all_rates()) all.push_back(code::standard_params(r));
    const auto area = arch::area_model(all, rc.spec);
    std::cout << "modeled total area (all 11 rates, 0.13um): " << area.total_mm2
              << " mm^2 (paper: 22.74)\n";
    return 0;
} catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
}
