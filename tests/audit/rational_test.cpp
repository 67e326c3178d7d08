#include "support/rational.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace p4all::support {
namespace {

TEST(Rational, FromDoubleIsExactOnDyadics) {
    EXPECT_EQ(Rat::from_double(0.5).to_string(), "1/2");
    EXPECT_EQ(Rat::from_double(-0.75).to_string(), "-3/4");
    EXPECT_EQ(Rat::from_double(3.0).to_string(), "3");
    EXPECT_EQ(Rat::from_double(0.0), Rat(0));
    EXPECT_EQ(Rat::from_double(2048.0), Rat(2048));
}

TEST(Rational, FromDoubleRoundTripsEveryDouble) {
    // Doubles are dyadic rationals, so conversion must be lossless — including
    // values like 0.1 whose decimal rendering is not.
    for (const double v : {0.1, 0.2, 0.3, 1.0 / 3.0, 1e-6, 1.75e6, -123.456,
                           std::ldexp(1.0, -60), std::ldexp(4503599627370497.0, -52)}) {
        EXPECT_EQ(Rat::from_double(v).to_double(), v) << v;
        EXPECT_EQ(Rat::from_double(-v).to_double(), -v) << v;
    }
}

TEST(Rational, FromDoubleExposesFloatError) {
    // The whole point of the exact layer: 0.1 + 0.2 as stored doubles is NOT
    // the double 0.3, and exact arithmetic can tell.
    const Rat sum = Rat::from_double(0.1) + Rat::from_double(0.2);
    EXPECT_NE(sum, Rat::from_double(0.3));
    // The exact sum needs 54 mantissa bits, so even float addition of the two
    // doubles cannot reproduce it — it falls strictly between the candidates.
    EXPECT_NE(sum, Rat::from_double(0.1 + 0.2));
    EXPECT_LT(Rat::from_double(0.3), sum);
    EXPECT_LT(sum, Rat::from_double(0.1 + 0.2));
    // double(0.2) is exactly 2·double(0.1), so the exact sum is 3·double(0.1).
    EXPECT_EQ(sum, Rat::from_double(0.1) * Rat(3));
}

TEST(Rational, QuantizationTruncatesTowardZeroPreservingSign) {
    // ldexp(1.7, 1) = 3.4 → truncate to 3 → 3/2.
    EXPECT_EQ(Rat::from_double_quantized(1.7, 1).to_string(), "3/2");
    EXPECT_EQ(Rat::from_double_quantized(-1.7, 1).to_string(), "-3/2");
    // Truncation never crosses zero: positive stays ≥ 0, negative stays ≤ 0.
    EXPECT_FALSE(Rat::from_double_quantized(1e-12, 8).negative());
    EXPECT_FALSE(Rat::from_double_quantized(-1e-12, 8).positive());
    // Values already on the grid pass through exactly.
    EXPECT_EQ(Rat::from_double_quantized(0.25, 30), Rat::from_double(0.25));
    // |quantized| ≤ |input| always.
    for (const double v : {3.14159, -2.71828, 1e-5, -1e-5}) {
        const Rat q = Rat::from_double_quantized(v, 30);
        EXPECT_LE(q.abs(), Rat::from_double(v).abs()) << v;
    }
}

TEST(Rational, ArithmeticIsExactAndNormalized) {
    const Rat half = Rat::from_double(0.5);
    const Rat quarter = Rat::from_double(0.25);
    EXPECT_EQ(half + quarter, Rat::from_double(0.75));
    EXPECT_EQ(half - quarter, quarter);
    EXPECT_EQ(half * Rat(4), Rat(2));
    EXPECT_EQ(quarter * quarter, Rat::from_double(0.0625));
    EXPECT_EQ((-half) + half, Rat(0));
    Rat acc = 0;
    for (int i = 0; i < 8; ++i) acc += Rat::from_double(0.125);
    EXPECT_EQ(acc, Rat(1));
    EXPECT_TRUE(acc.is_integer());
    EXPECT_FALSE(half.is_integer());
}

TEST(Rational, ComparisonsAreExact) {
    EXPECT_LT(Rat::from_double(0.5), Rat::from_double(0.75));
    EXPECT_GT(Rat(1), Rat::from_double(0.999999999999));
    EXPECT_EQ(Rat(2) * Rat::from_double(0.25), Rat::from_double(0.5));
    EXPECT_TRUE(Rat(-1).negative());
    EXPECT_TRUE(Rat(1).positive());
    EXPECT_TRUE(Rat(0).is_zero());
    EXPECT_EQ(Rat(-3).abs(), Rat(3));
}

TEST(Rational, DyadicAdditionKeepsDenominatorsBounded) {
    // Regression for the certificate-checker overflow: summing many deep
    // dyadics must keep the denominator at the max of the inputs, not the
    // product. 1000 terms of den 2^52 would otherwise blow past 128 bits
    // after three additions.
    const Rat deep = Rat::from_double(std::ldexp(1.0, -52) * 3);
    Rat acc = 0;
    for (int i = 0; i < 1000; ++i) acc += deep;
    EXPECT_EQ(acc, deep * Rat(1000));
}

TEST(Rational, OverflowThrowsInsteadOfWrapping) {
    EXPECT_THROW((void)Rat::from_double(std::ldexp(1.0, 80)), support::CompileError);
    EXPECT_THROW((void)Rat::from_double(std::ldexp(1.0, -130)), support::CompileError);
    EXPECT_THROW((void)Rat::from_double(std::numeric_limits<double>::infinity()),
                 support::CompileError);
    EXPECT_THROW((void)Rat::from_double(std::numeric_limits<double>::quiet_NaN()),
                 support::CompileError);
    const Rat big = Rat::from_double(std::ldexp(1.0, 69));
    EXPECT_THROW((void)(big * big), support::CompileError);
}

TEST(Rational, ToStringRendersLowestTerms) {
    EXPECT_EQ(Rat(7).to_string(), "7");
    EXPECT_EQ((Rat(2) * Rat::from_double(0.25)).to_string(), "1/2");
    EXPECT_EQ(Rat(0).to_string(), "0");
    EXPECT_EQ(Rat(-12).to_string(), "-12");
}

}  // namespace
}  // namespace p4all::support
