#pragma once

#include <cstdint>
#include <vector>

namespace jungle::kernels {

/// Parameterized stellar evolution, the SSE analog (Hurley, Pols & Tout
/// 2000). The paper describes it exactly right for our purposes: "a simple
/// lookup of a star's age and initial mass to determine its current state.
/// Since this lookup is nearly trivial, SSE is simply a sequential
/// application."
///
/// We use simplified power-law fits (documented in DESIGN.md): the *shape*
/// matters — massive stars evolve fast, blow winds, and explode — because
/// that drives the embedded cluster's gas expulsion (Fig 6).
class StellarEvolution {
 public:
  enum class Phase : std::uint8_t {
    main_sequence = 0,
    giant = 1,
    white_dwarf = 2,
    neutron_star = 3,
  };

  struct Star {
    double zams_mass = 1.0;  // MSun at formation
    double mass = 1.0;       // current MSun
    double age = 0.0;        // Myr
    double luminosity = 1.0; // LSun
    double radius = 1.0;     // RSun
    Phase phase = Phase::main_sequence;
    bool exploded = false;   // supernova happened during the last evolve
  };

  /// Returns the star's index.
  int add_star(double zams_mass_msun);
  std::size_t size() const noexcept { return stars_.size(); }

  /// Evolve every star to the given age (Myr). Ages must not decrease.
  void evolve_to(double age_myr);

  const Star& star(int index) const { return stars_.at(index); }
  std::vector<double> masses() const;

  /// Indices of stars that went supernova during the last evolve_to call.
  const std::vector<int>& recent_supernovae() const noexcept {
    return recent_sn_;
  }

  /// Total mass lost by winds/ejecta during the last evolve_to (MSun).
  double recent_mass_loss() const noexcept { return recent_mass_loss_; }

  // -- the analytic fits (public for tests and documentation) --

  /// Main-sequence lifetime in Myr: ~10 Gyr * (M/MSun)^-2.5, floored at the
  /// lifetime of the most massive stars (~3 Myr).
  static double main_sequence_lifetime_myr(double zams_mass);
  /// Giant-branch duration: 15% of the MS lifetime.
  static double giant_lifetime_myr(double zams_mass);
  /// MS luminosity (LSun): (M/MSun)^3.5.
  static double ms_luminosity(double zams_mass);
  /// MS radius (RSun): (M/MSun)^0.8.
  static double ms_radius(double zams_mass);
  /// Remnant mass: WD of 0.6 MSun below 8 MSun, else a 1.4 MSun NS.
  static double remnant_mass(double zams_mass);
  static constexpr double kSupernovaThreshold = 8.0;  // MSun
  /// Canonical supernova energy (erg).
  static constexpr double kSupernovaEnergyErg = 1e51;
  /// Wind luminosity ~ mass loss: strong for massive stars. MSun/Myr.
  static double wind_mass_loss_rate(double zams_mass, Phase phase);

 private:
  void evolve_star(Star& star, double target_age, int index);

  std::vector<Star> stars_;
  std::vector<int> recent_sn_;
  double recent_mass_loss_ = 0.0;
};

}  // namespace jungle::kernels
