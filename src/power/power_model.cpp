#include "power/power_model.h"

#include <cmath>

#include "util/check.h"
#include "util/format.h"

namespace ge::power {

PowerModel::PowerModel(double a, double beta, double units_per_ghz)
    : a_(a), beta_(beta), units_per_ghz_(units_per_ghz), beta_is_two_(beta == 2.0) {
  GE_CHECK(a > 0.0, "power scale factor a must be positive");
  GE_CHECK(beta > 1.0, "power exponent beta must exceed 1 (convexity)");
  GE_CHECK(units_per_ghz > 0.0, "units_per_ghz must be positive");
}

double PowerModel::power(double speed_units) const {
  GE_CHECK(speed_units >= -1e-9, "negative speed");
  if (speed_units <= 0.0) {
    return 0.0;
  }
  const double ghz = speed_units / units_per_ghz_;
  if (beta_is_two_) {
    return a_ * (ghz * ghz);
  }
  return a_ * std::pow(ghz, beta_);
}

double PowerModel::speed_for_power(double watts) const {
  GE_CHECK(watts >= -1e-9, "negative power");
  if (watts <= 0.0) {
    return 0.0;
  }
  return units_per_ghz_ * std::pow(watts / a_, 1.0 / beta_);
}

double PowerModel::energy(double speed_units, double duration) const {
  GE_CHECK(duration >= 0.0, "negative duration");
  return power(speed_units) * duration;
}

std::string PowerModel::describe_json() const {
  std::string out;
  util::append(out, "{\"a\": ", a_, ", \"beta\": ", beta_,
               ", \"units_per_ghz\": ", units_per_ghz_, "}");
  return out;
}

}  // namespace ge::power
