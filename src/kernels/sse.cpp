#include "kernels/sse.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace jungle::kernels {

int StellarEvolution::add_star(double zams_mass_msun) {
  Star star;
  star.zams_mass = zams_mass_msun;
  star.mass = zams_mass_msun;
  star.luminosity = ms_luminosity(zams_mass_msun);
  star.radius = ms_radius(zams_mass_msun);
  stars_.push_back(star);
  return static_cast<int>(stars_.size()) - 1;
}

double StellarEvolution::main_sequence_lifetime_myr(double zams_mass) {
  return std::max(3.0, 1.0e4 * std::pow(zams_mass, -2.5));
}

double StellarEvolution::giant_lifetime_myr(double zams_mass) {
  return 0.15 * main_sequence_lifetime_myr(zams_mass);
}

double StellarEvolution::ms_luminosity(double zams_mass) {
  return std::pow(zams_mass, 3.5);
}

double StellarEvolution::ms_radius(double zams_mass) {
  return std::pow(zams_mass, 0.8);
}

double StellarEvolution::remnant_mass(double zams_mass) {
  if (zams_mass >= kSupernovaThreshold) return 1.4;
  // A white dwarf cannot outweigh its progenitor.
  return std::min(0.6, zams_mass);
}

double StellarEvolution::wind_mass_loss_rate(double zams_mass, Phase phase) {
  if (phase == Phase::white_dwarf || phase == Phase::neutron_star) return 0.0;
  // Massive-star winds dominate; negligible below a few MSun. The giant
  // branch sheds the envelope at a much higher rate.
  double base = 1e-6 * std::pow(zams_mass, 2.5);
  return phase == Phase::giant ? 50.0 * base : base;
}

void StellarEvolution::evolve_to(double age_myr) {
  recent_sn_.clear();
  recent_mass_loss_ = 0.0;
  for (std::size_t i = 0; i < stars_.size(); ++i) {
    if (age_myr < stars_[i].age - 1e-12) {
      throw CodeError("SSE cannot evolve backwards in time");
    }
    evolve_star(stars_[i], age_myr, static_cast<int>(i));
  }
}

void StellarEvolution::evolve_star(Star& star, double target_age, int index) {
  star.exploded = false;
  double t_ms = main_sequence_lifetime_myr(star.zams_mass);
  double t_giant_end = t_ms + giant_lifetime_myr(star.zams_mass);
  double previous_mass = star.mass;
  double dt = target_age - star.age;
  star.age = target_age;

  if (star.phase == Phase::white_dwarf || star.phase == Phase::neutron_star) {
    return;  // remnants are inert
  }

  if (target_age < t_ms) {
    star.phase = Phase::main_sequence;
    star.luminosity = ms_luminosity(star.zams_mass) *
                      (1.0 + 0.5 * target_age / t_ms);  // mild MS brightening
    star.radius = ms_radius(star.zams_mass);
    star.mass = std::max(
        remnant_mass(star.zams_mass),
        star.mass - wind_mass_loss_rate(star.zams_mass,
                                        Phase::main_sequence) * dt);
  } else if (target_age < t_giant_end) {
    star.phase = Phase::giant;
    star.luminosity = 50.0 * ms_luminosity(star.zams_mass);
    star.radius = 100.0 * ms_radius(star.zams_mass);
    // The envelope goes during the giant phase: interpolate the mass from
    // the ZAMS value down to the remnant mass across the phase.
    double fraction = (target_age - t_ms) / (t_giant_end - t_ms);
    double envelope_target =
        star.zams_mass +
        fraction * (remnant_mass(star.zams_mass) - star.zams_mass);
    star.mass = std::min(star.mass, std::max(remnant_mass(star.zams_mass),
                                             envelope_target));
  } else {
    // Phase ended this step: collapse to the remnant.
    bool was_remnant_before = false;
    (void)was_remnant_before;
    star.mass = remnant_mass(star.zams_mass);
    if (star.zams_mass >= kSupernovaThreshold) {
      star.phase = Phase::neutron_star;
      star.exploded = true;
      recent_sn_.push_back(index);
      star.luminosity = 1e-2;
      star.radius = 1.7e-5;  // ~12 km in RSun
    } else {
      star.phase = Phase::white_dwarf;
      star.luminosity = 1e-3;
      star.radius = 0.01;
    }
  }
  recent_mass_loss_ += std::max(0.0, previous_mass - star.mass);
}

std::vector<double> StellarEvolution::masses() const {
  std::vector<double> result;
  result.reserve(stars_.size());
  for (const Star& star : stars_) result.push_back(star.mass);
  return result;
}

}  // namespace jungle::kernels
