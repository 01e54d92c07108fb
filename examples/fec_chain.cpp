// Full DVB-S2 FEC chain: BCH outer code + LDPC inner code (EN 302 307
// FECFRAME). The DATE'05 paper decodes the LDPC part; this example shows
// the complete concatenation the IP core sits in: the BCH code cleans the
// residual errors of the LDPC decoder (the "error floor" remover).
//
//   ./fec_chain [--rate=1/2] [--frame=long|short] [--ebn0=1.0] [--frames=4] [--seed=3]
#include <iostream>

#include "bch/bch.hpp"
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

code::FrameSize parse_frame(const std::string& s) {
    if (s == "long") return code::FrameSize::Long;
    if (s == "short") return code::FrameSize::Short;
    throw std::runtime_error("--frame: expected long or short, got \"" + s + "\"");
}

}  // namespace

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"rate", "frame", "ebn0", "frames", "seed"});
    const auto rate = parse_rate(args.get("rate", "1/2"));
    const auto frame = parse_frame(args.get("frame", "long"));
    const double ebn0 = args.get_double("ebn0", 1.0);
    const int frames = static_cast<int>(args.get_int("frames", 4));
    const auto seed0 = static_cast<std::uint64_t>(args.get_int("seed", 3));

    // Outer BCH: N_bch = K_ldpc (Table 5a long, 5b short).
    const auto bch_prm = bch::dvbs2_bch_params(rate, frame);
    const bch::BchCode outer(bch_prm.m, bch_prm.t, bch_prm.n_bch);
    // Inner LDPC.
    const code::Dvbs2Code inner(code::standard_params(rate, frame));
    const enc::Encoder ldpc_enc(inner);
    core::DecoderConfig cfg;
    cfg.max_iterations = 30;
    const auto ldpc_dec =
        core::make_engine(inner, {core::Arithmetic::Fixed, cfg, quant::kQuant6});

    std::cout << "DVB-S2 FEC frame, rate " << code::to_string(rate)
              << (frame == code::FrameSize::Short ? " (short)" : " (long)") << ":\n"
              << "  BCH(" << outer.n() << ", " << outer.k() << ", t=" << outer.t()
              << ") over GF(2^" << bch_prm.m << ")  ->  LDPC(" << inner.n() << ", "
              << inner.k() << ")\n"
              << "  payload " << outer.k() << " bits per " << inner.n() << "-bit frame\n\n";

    const double sigma = comm::noise_sigma(ebn0, inner.params().rate(), comm::Modulation::Bpsk);
    int clean_frames = 0;
    core::DecodeResult ldpc_out;  // reused by decode_into across frames
    for (int f = 0; f < frames; ++f) {
        const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(f);
        // TX: payload -> BCH -> LDPC -> BPSK/AWGN.
        const util::BitVec payload = enc::random_info_bits(outer.k(), seed);
        const util::BitVec bch_cw = outer.encode(payload);
        const util::BitVec ldpc_cw = ldpc_enc.encode(bch_cw);
        comm::AwgnModem modem(comm::Modulation::Bpsk, seed * 13 + 1);
        const auto llr = modem.transmit(ldpc_cw, sigma);

        // RX: LDPC decode (engine + result storage reused) -> BCH decode.
        ldpc_dec->decode_into(llr, ldpc_out);
        const std::size_t ldpc_errs = util::BitVec::hamming_distance(ldpc_out.info_bits, bch_cw);
        const auto bch_out = outer.decode(ldpc_out.info_bits);
        util::BitVec recovered(static_cast<std::size_t>(outer.k()));
        for (int i = 0; i < outer.k(); ++i)
            if (bch_out.codeword.get(static_cast<std::size_t>(i)))
                recovered.set(static_cast<std::size_t>(i), true);
        const std::size_t final_errs = util::BitVec::hamming_distance(recovered, payload);
        if (final_errs == 0) ++clean_frames;

        std::cout << "frame " << f << ": LDPC " << (ldpc_out.converged ? "converged" : "stuck")
                  << " (" << ldpc_out.iterations << " it, " << ldpc_errs
                  << " residual bit errors) -> BCH "
                  << (bch_out.success ? "corrected " + std::to_string(bch_out.errors_corrected) +
                                            " errors"
                                      : "FAILED")
                  << " -> " << final_errs << " payload errors\n";
    }
    std::cout << "\n" << clean_frames << "/" << frames << " frames delivered error-free\n";
    return clean_frames == frames ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
}
