#pragma once

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace jungle::amuse {

/// Exponents of the seven SI base dimensions (m, kg, s, A, K, mol, cd).
using Dimensions = std::array<std::int8_t, 7>;

/// A physical unit: a scale factor to SI plus a dimension vector. AMUSE's
/// hallmark is *checked* unit handling — "with the large number of units
/// used in astronomy, checked conversion of all these units is a
/// requirement for combining different models" (paper §4.1). All checks are
/// at runtime; incompatible operations throw UnitError.
struct Unit {
  double si_factor = 1.0;
  Dimensions dims{};
  std::string symbol;

  bool same_dimensions(const Unit& other) const noexcept {
    return dims == other.dims;
  }

  Unit operator*(const Unit& other) const;
  Unit operator/(const Unit& other) const;
  Unit pow(int exponent) const;
};

/// A value tagged with its unit.
class Quantity {
 public:
  Quantity() = default;
  Quantity(double value, Unit unit) : value_(value), unit_(std::move(unit)) {}

  double raw() const noexcept { return value_; }
  const Unit& unit() const noexcept { return unit_; }

  /// Convert to `target` units; throws UnitError on dimension mismatch.
  double value_in(const Unit& target) const;

  Quantity operator+(const Quantity& other) const;
  Quantity operator*(const Quantity& other) const;
  Quantity operator/(const Quantity& other) const;
  Quantity operator*(double scalar) const {
    return Quantity(value_ * scalar, unit_);
  }
  Quantity operator/(double scalar) const {
    return Quantity(value_ / scalar, unit_);
  }
  Quantity operator-() const { return Quantity(-value_, unit_); }

  bool operator<(const Quantity& other) const {
    return value_in(other.unit()) < other.raw();
  }
  bool operator>(const Quantity& other) const { return other < *this; }

  /// sqrt of the quantity (dimensions must have even exponents).
  Quantity sqrt() const;

 private:
  double value_ = 0.0;
  Unit unit_;
};

inline Quantity operator*(double scalar, const Quantity& quantity) {
  return quantity * scalar;
}

/// The unit vocabulary the examples and kernels need.
namespace units {
extern const Unit none;
extern const Unit m;
extern const Unit kg;
extern const Unit s;
extern const Unit km;
extern const Unit au;
extern const Unit parsec;
extern const Unit msun;
extern const Unit yr;
extern const Unit myr;
extern const Unit kms;      // km/s
extern const Unit j;        // joule
extern const Unit erg;
extern const Unit g_cgs;    // gram
extern const Unit lsun;     // solar luminosity (J/s)
extern const Unit rsun;     // solar radius
extern const Unit kelvin;
/// Newton's constant as a Quantity (m^3 kg^-1 s^-2).
Quantity G();
}  // namespace units

/// Conversion between dimensionless N-body units (G = 1) and SI — AMUSE's
/// `nbody_system.nbody_to_si`. Fixing a mass and a length scale determines
/// the time scale: T = sqrt(L^3 / (G M)).
class NBodyConverter {
 public:
  NBodyConverter(Quantity mass_scale, Quantity length_scale);

  /// N-body value of a dimensional quantity.
  double to_nbody(const Quantity& quantity) const;
  /// Quantity (in `unit`) from an N-body value with the dims of `unit`.
  Quantity to_si(double nbody_value, const Unit& unit) const;

  Quantity mass_scale() const { return mass_; }
  Quantity length_scale() const { return length_; }
  Quantity time_scale() const { return time_; }

 private:
  double scale_for(const Dimensions& dims) const;

  Quantity mass_;
  Quantity length_;
  Quantity time_;
};

}  // namespace jungle::amuse
