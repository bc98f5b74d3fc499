#include "amuse/units.hpp"

namespace jungle::amuse {

namespace {

Dimensions add_dims(const Dimensions& a, const Dimensions& b) {
  Dimensions result{};
  for (std::size_t i = 0; i < result.size(); ++i) {
    result[i] = static_cast<std::int8_t>(a[i] + b[i]);
  }
  return result;
}

Dimensions sub_dims(const Dimensions& a, const Dimensions& b) {
  Dimensions result{};
  for (std::size_t i = 0; i < result.size(); ++i) {
    result[i] = static_cast<std::int8_t>(a[i] - b[i]);
  }
  return result;
}

std::string dims_text(const Dimensions& dims) {
  static const char* const kNames[7] = {"m", "kg", "s", "A", "K", "mol", "cd"};
  std::string text = "[";
  bool first = true;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (dims[i] == 0) continue;
    if (!first) text += " ";
    first = false;
    text += kNames[i];
    if (dims[i] != 1) text += "^" + std::to_string(dims[i]);
  }
  if (first) text += "1";
  return text + "]";
}

}  // namespace

Unit Unit::operator*(const Unit& other) const {
  return Unit{si_factor * other.si_factor, add_dims(dims, other.dims),
              symbol + "*" + other.symbol};
}

Unit Unit::operator/(const Unit& other) const {
  return Unit{si_factor / other.si_factor, sub_dims(dims, other.dims),
              symbol + "/" + other.symbol};
}

Unit Unit::pow(int exponent) const {
  Unit result{1.0, {}, symbol + "^" + std::to_string(exponent)};
  for (int i = 0; i < std::abs(exponent); ++i) {
    result.si_factor *= si_factor;
    result.dims = exponent > 0 ? add_dims(result.dims, dims)
                               : sub_dims(result.dims, dims);
  }
  return result;
}

double Quantity::value_in(const Unit& target) const {
  if (!unit_.same_dimensions(target)) {
    throw UnitError("cannot convert " + unit_.symbol + " " +
                    dims_text(unit_.dims) + " to " + target.symbol + " " +
                    dims_text(target.dims));
  }
  return value_ * unit_.si_factor / target.si_factor;
}

Quantity Quantity::operator+(const Quantity& other) const {
  return Quantity(value_ + other.value_in(unit_), unit_);
}

Quantity Quantity::operator*(const Quantity& other) const {
  return Quantity(value_ * other.value_, unit_ * other.unit_);
}

Quantity Quantity::operator/(const Quantity& other) const {
  return Quantity(value_ / other.value_, unit_ / other.unit_);
}

Quantity Quantity::sqrt() const {
  Unit half{std::sqrt(unit_.si_factor), {}, "sqrt(" + unit_.symbol + ")"};
  for (std::size_t i = 0; i < half.dims.size(); ++i) {
    if (unit_.dims[i] % 2 != 0) {
      throw UnitError("sqrt of unit with odd exponent: " + unit_.symbol);
    }
    half.dims[i] = static_cast<std::int8_t>(unit_.dims[i] / 2);
  }
  return Quantity(std::sqrt(value_), half);
}

namespace units {

// dims: {m, kg, s, A, K, mol, cd}
const Unit none{1.0, {0, 0, 0, 0, 0, 0, 0}, ""};
const Unit m{1.0, {1, 0, 0, 0, 0, 0, 0}, "m"};
const Unit kg{1.0, {0, 1, 0, 0, 0, 0, 0}, "kg"};
const Unit s{1.0, {0, 0, 1, 0, 0, 0, 0}, "s"};
const Unit km{1e3, {1, 0, 0, 0, 0, 0, 0}, "km"};
const Unit au{1.495978707e11, {1, 0, 0, 0, 0, 0, 0}, "AU"};
const Unit parsec{3.0856775814913673e16, {1, 0, 0, 0, 0, 0, 0}, "pc"};
const Unit msun{1.98892e30, {0, 1, 0, 0, 0, 0, 0}, "MSun"};
const Unit yr{3.15576e7, {0, 0, 1, 0, 0, 0, 0}, "yr"};
const Unit myr{3.15576e13, {0, 0, 1, 0, 0, 0, 0}, "Myr"};
const Unit kms{1e3, {1, 0, -1, 0, 0, 0, 0}, "km/s"};
const Unit j{1.0, {2, 1, -2, 0, 0, 0, 0}, "J"};
const Unit erg{1e-7, {2, 1, -2, 0, 0, 0, 0}, "erg"};
const Unit g_cgs{1e-3, {0, 1, 0, 0, 0, 0, 0}, "g"};
const Unit lsun{3.846e26, {2, 1, -3, 0, 0, 0, 0}, "LSun"};
const Unit rsun{6.957e8, {1, 0, 0, 0, 0, 0, 0}, "RSun"};
const Unit kelvin{1.0, {0, 0, 0, 0, 1, 0, 0}, "K"};

Quantity G() {
  Unit g_unit = (m.pow(3) / kg) / s.pow(2);
  return Quantity(6.67430e-11, g_unit);
}

}  // namespace units

NBodyConverter::NBodyConverter(Quantity mass_scale, Quantity length_scale)
    : mass_(std::move(mass_scale)), length_(std::move(length_scale)) {
  if (!mass_.unit().same_dimensions(units::kg)) {
    throw UnitError("NBodyConverter mass scale is not a mass");
  }
  if (!length_.unit().same_dimensions(units::m)) {
    throw UnitError("NBodyConverter length scale is not a length");
  }
  // T = sqrt(L^3 / (G M))
  Quantity l3 = length_ * length_ * length_;
  time_ = (l3 / (units::G() * mass_)).sqrt();
}

double NBodyConverter::scale_for(const Dimensions& dims) const {
  double m_si = mass_.value_in(units::kg);
  double l_si = length_.value_in(units::m);
  double t_si = time_.value_in(units::s);
  double scale = 1.0;
  for (int i = 0; i < dims[0]; ++i) scale *= l_si;
  for (int i = 0; i > dims[0]; --i) scale /= l_si;
  for (int i = 0; i < dims[1]; ++i) scale *= m_si;
  for (int i = 0; i > dims[1]; --i) scale /= m_si;
  for (int i = 0; i < dims[2]; ++i) scale *= t_si;
  for (int i = 0; i > dims[2]; --i) scale /= t_si;
  for (std::size_t d = 3; d < dims.size(); ++d) {
    if (dims[d] != 0) {
      throw UnitError("N-body conversion only covers mechanical dimensions");
    }
  }
  return scale;
}

double NBodyConverter::to_nbody(const Quantity& quantity) const {
  double si_value = quantity.raw() * quantity.unit().si_factor;
  return si_value / scale_for(quantity.unit().dims);
}

Quantity NBodyConverter::to_si(double nbody_value, const Unit& unit) const {
  double si_value = nbody_value * scale_for(unit.dims);
  return Quantity(si_value / unit.si_factor, unit);
}

}  // namespace jungle::amuse
