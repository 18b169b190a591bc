#include "quality/quality_function.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/table.h"

namespace ge::quality {
namespace {

double clamp01(double q) { return std::clamp(q, 0.0, 1.0); }

}  // namespace

ExponentialQuality::ExponentialQuality(double c, double xmax) : c_(c), xmax_(xmax) {
  GE_CHECK(c > 0.0, "concavity multiplier c must be positive");
  GE_CHECK(xmax > 0.0, "xmax must be positive");
  norm_ = 1.0 - std::exp(-c_ * xmax_);
}

double ExponentialQuality::value(double x) const {
  x = std::clamp(x, 0.0, xmax_);
  return (1.0 - std::exp(-c_ * x)) / norm_;
}

double ExponentialQuality::derivative(double x) const {
  x = std::clamp(x, 0.0, xmax_);
  return c_ * std::exp(-c_ * x) / norm_;
}

double ExponentialQuality::inverse(double q) const {
  q = clamp01(q);
  const double arg = 1.0 - q * norm_;
  GE_CHECK(arg > 0.0, "inverse() argument out of range");
  const double x = -std::log(arg) / c_;
  return std::clamp(x, 0.0, xmax_);
}

std::string ExponentialQuality::name() const {
  return "exp(c=" + ge::util::format_double(c_, 4) + ")";
}

LinearQuality::LinearQuality(double xmax) : xmax_(xmax) {
  GE_CHECK(xmax > 0.0, "xmax must be positive");
}

double LinearQuality::value(double x) const {
  return std::clamp(x, 0.0, xmax_) / xmax_;
}

double LinearQuality::derivative(double x) const {
  (void)x;
  return 1.0 / xmax_;
}

double LinearQuality::inverse(double q) const { return clamp01(q) * xmax_; }

PowerLawQuality::PowerLawQuality(double gamma, double xmax)
    : gamma_(gamma),
      xmax_(xmax),
      inv_gamma_(1.0 / gamma),
      gamma_minus_one_(gamma - 1.0),
      slope_scale_(gamma / xmax) {
  GE_CHECK(gamma > 0.0 && gamma < 1.0, "power-law exponent must be in (0,1)");
  GE_CHECK(xmax > 0.0, "xmax must be positive");
}

double PowerLawQuality::value(double x) const {
  x = std::clamp(x, 0.0, xmax_);
  return std::pow(x / xmax_, gamma_);
}

double PowerLawQuality::derivative(double x) const {
  x = std::clamp(x, 0.0, xmax_);
  if (x <= 0.0) {
    // f'(0+) diverges; return a large finite slope instead.
    return 1e18;
  }
  return slope_scale_ * std::pow(x / xmax_, gamma_minus_one_);
}

double PowerLawQuality::inverse(double q) const {
  return std::pow(clamp01(q), inv_gamma_) * xmax_;
}

std::string PowerLawQuality::name() const {
  return "powerlaw(gamma=" + ge::util::format_double(gamma_, 3) + ")";
}

std::unique_ptr<QualityFunction> make_paper_quality_function(double c, double xmax) {
  return std::make_unique<ExponentialQuality>(c, xmax);
}

}  // namespace ge::quality
