// Convergence visualization: decodes one noisy frame with each schedule and
// prints the per-iteration trace (unsatisfied checks, mean |posterior|) —
// the dynamics behind Fig. 2's "10 iterations saved".
//
//   ./schedule_viz [--rate=1/2] [--ebn0=1.1] [--seed=4] [--iters=40]
#include <iomanip>
#include <iostream>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "core/engine.hpp"
#include "enc/encoder.hpp"
#include "util/cli.hpp"

using namespace dvbs2;

namespace {

code::CodeRate parse_rate(const std::string& s) {
    for (auto r : code::all_rates())
        if (code::to_string(r) == s) return r;
    throw std::runtime_error("unknown rate " + s);
}

}  // namespace

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"rate", "ebn0", "seed", "iters"});
    const auto rate = parse_rate(args.get("rate", "1/2"));
    const double ebn0 = args.get_double("ebn0", 1.1);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 4));
    const int iters = static_cast<int>(args.get_int("iters", 40));

    const code::Dvbs2Code ldpc(code::standard_params(rate));
    const enc::Encoder encoder(ldpc);
    const util::BitVec info = enc::random_info_bits(ldpc.k(), seed);
    comm::AwgnModem modem(comm::Modulation::Bpsk, seed + 1);
    const double sigma = comm::noise_sigma(ebn0, ldpc.params().rate(), comm::Modulation::Bpsk);
    const auto llr = modem.transmit(encoder.encode(info), sigma);

    std::cout << ldpc.params().name << " @ " << ebn0 << " dB, one frame, up to " << iters
              << " iterations\n\n";
    for (auto schedule : {core::Schedule::TwoPhase, core::Schedule::ZigzagForward,
                          core::Schedule::ZigzagMap, core::Schedule::Layered}) {
        core::DecoderConfig cfg;
        cfg.schedule = schedule;
        cfg.max_iterations = iters;
        const auto dec = core::make_engine(ldpc, {core::Arithmetic::Float, cfg});
        std::vector<core::IterationTrace> traces;
        dec->set_observer([&](const core::IterationTrace& t) { traces.push_back(t); });
        const auto res = dec->decode(llr);

        std::cout << std::left << std::setw(18) << core::to_string(schedule)
                  << " unsatisfied checks per iteration:\n  ";
        for (const auto& t : traces) {
            std::cout << t.unsatisfied_checks;
            if (&t != &traces.back()) std::cout << " ";
        }
        std::cout << "\n  -> " << (res.converged ? "converged" : "did not converge") << " in "
                  << res.iterations << " iterations, final mean |posterior| = "
                  << std::fixed << std::setprecision(1)
                  << (traces.empty() ? 0.0 : traces.back().mean_abs_posterior) << "\n\n";
    }
    return 0;
} catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
}
