#include "bch/gf.hpp"

#include <algorithm>

namespace dvbs2::bch {

std::uint32_t GaloisField::default_primitive_poly(int m) {
    // Standard primitive polynomials (Lin & Costello, Appendix A).
    switch (m) {
        case 2: return 0x7;        // x^2+x+1
        case 3: return 0xB;        // x^3+x+1
        case 4: return 0x13;       // x^4+x+1
        case 5: return 0x25;       // x^5+x^2+1
        case 6: return 0x43;       // x^6+x+1
        case 7: return 0x89;       // x^7+x^3+1
        case 8: return 0x11D;      // x^8+x^4+x^3+x^2+1
        case 9: return 0x211;      // x^9+x^4+1
        case 10: return 0x409;     // x^10+x^3+1
        case 11: return 0x805;     // x^11+x^2+1
        case 12: return 0x1053;    // x^12+x^6+x^4+x+1
        case 13: return 0x201B;    // x^13+x^4+x^3+x+1
        case 14: return 0x4443;    // x^14+x^10+x^6+x+1
        case 15: return 0x8003;    // x^15+x+1
        case 16: return 0x1100B;   // x^16+x^12+x^3+x+1
        default: throw std::runtime_error("GF(2^m) supported for 2 <= m <= 16");
    }
}

GaloisField::GaloisField(int m, std::uint32_t prim_poly) : m_(m) {
    DVBS2_REQUIRE(m >= 2 && m <= 16, "GF(2^m) supported for 2 <= m <= 16");
    if (prim_poly == 0) prim_poly = default_primitive_poly(m);
    order_ = (1u << m) - 1u;
    exp_.assign(2 * static_cast<std::size_t>(order_), 0);
    log_.assign(order_ + 1u, 0);

    std::uint32_t x = 1;
    for (std::uint32_t i = 0; i < order_; ++i) {
        DVBS2_REQUIRE(!(i > 0 && x == 1),
                      "polynomial is not primitive: alpha has order " + std::to_string(i));
        exp_[i] = static_cast<std::uint16_t>(x);
        log_[x] = static_cast<std::uint16_t>(i);
        x <<= 1;
        if (x > order_) x ^= prim_poly;
    }
    // x = alpha^order now, which must close the cycle.
    DVBS2_REQUIRE(x == 1, "polynomial does not generate the full multiplicative group");
    std::copy(exp_.begin(), exp_.begin() + order_, exp_.begin() + order_);
}

}  // namespace dvbs2::bch
