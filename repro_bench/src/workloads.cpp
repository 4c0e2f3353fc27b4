#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

namespace repro {

using g2g::core::ExperimentConfig;
using g2g::core::Protocol;
using g2g::core::Scenario;
using g2g::proto::Behavior;

namespace {

const char* protocol_tag(Protocol p) {
  switch (p) {
    case Protocol::Epidemic: return "epidemic";
    case Protocol::G2GEpidemic: return "g2g-epidemic";
    case Protocol::DelegationFrequency: return "delegation-freq";
    case Protocol::DelegationLastContact: return "delegation-lc";
    case Protocol::G2GDelegationFrequency: return "g2g-delegation-freq";
    case Protocol::G2GDelegationLastContact: return "g2g-delegation-lc";
  }
  return "?";
}

const char* behavior_tag(Behavior b) {
  switch (b) {
    case Behavior::Faithful: return "faithful";
    case Behavior::Dropper: return "dropper";
    case Behavior::Liar: return "liar";
    case Behavior::Cheater: return "cheater";
    case Behavior::Hoarder: return "hoarder";
  }
  return "?";
}

enum class Venue { Infocom05, Cambridge06 };

Cell make_cell(Protocol protocol, Venue venue, Behavior deviation, std::size_t count,
               bool outsiders, std::uint64_t seed) {
  const Scenario scenario = venue == Venue::Infocom05 ? g2g::core::infocom05_scenario(seed)
                                                      : g2g::core::cambridge06_scenario(seed);
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.scenario = scenario;
  cfg.deviation = deviation;
  cfg.deviant_count = count;
  cfg.with_outsiders = outsiders;
  cfg.seed = seed;
  std::string name = std::string(protocol_tag(protocol)) + "/" + scenario.name + "/" +
                     behavior_tag(deviation) + "=" + std::to_string(count) +
                     (outsiders ? "/outsiders" : "/plain") + "/seed=" + std::to_string(seed);
  return {std::move(name), std::move(cfg)};
}

// Adds a cell once per experiment seed.
void add_all_seeds(std::vector<Cell>& out, Protocol protocol, Venue venue, Behavior deviation,
                   std::size_t count, bool outsiders) {
  for (const std::uint64_t seed : kExperimentSeeds) {
    out.push_back(make_cell(protocol, venue, deviation, count, outsiders, seed));
  }
}

// Hands out one experiment seed per cell in the pattern 1 2 2 1 1 2 2 1 ...,
// so that in the nested loops below each deviation count or kind gets both
// seeds across the plain/outsiders pair and across the two scenarios, and
// each scenario's cells split evenly between the seeds.
class AlternatingSeeds {
 public:
  std::uint64_t next() {
    const std::uint64_t seed = kExperimentSeeds[(k_ + k_ / 2) % 2];
    ++k_;
    return seed;
  }

 private:
  std::size_t k_ = 0;
};

// Figs. 3/4: G2G Epidemic against droppers, plain and with outsiders.
std::vector<Cell> epidemic_droppers() {
  std::vector<Cell> out;
  AlternatingSeeds seeds;
  for (const Venue venue : {Venue::Infocom05, Venue::Cambridge06}) {
    for (const std::size_t n : {5u, 20u, 35u}) {
      for (const bool outsiders : {false, true}) {
        out.push_back(make_cell(Protocol::G2GEpidemic, venue, Behavior::Dropper, n, outsiders,
                                seeds.next()));
      }
    }
  }
  return out;
}

// Figs. 5/7 and Table 1: both G2G Delegation qualities against 10 liars or
// cheaters (Table 1's count), plain and with outsiders. Delegation droppers
// run in figure-sweep; with them this list would not fit two passes in a run.
std::vector<Cell> delegation_deviants() {
  std::vector<Cell> out;
  AlternatingSeeds seeds;
  for (const Venue venue : {Venue::Infocom05, Venue::Cambridge06}) {
    for (const Protocol p :
         {Protocol::G2GDelegationFrequency, Protocol::G2GDelegationLastContact}) {
      for (const Behavior b : {Behavior::Liar, Behavior::Cheater}) {
        for (const bool outsiders : {false, true}) {
          out.push_back(make_cell(p, venue, b, 10, outsiders, seeds.next()));
        }
      }
    }
  }
  return out;
}

// Fig. 8 baselines: the three protocols without G2G, no deviants.
std::vector<Cell> vanilla_baselines() {
  std::vector<Cell> out;
  for (const Venue venue : {Venue::Infocom05, Venue::Cambridge06}) {
    for (const Protocol p : {Protocol::Epidemic, Protocol::DelegationFrequency,
                             Protocol::DelegationLastContact}) {
      add_all_seeds(out, p, venue, Behavior::Faithful, 0, false);
    }
  }
  return out;
}

// A figure regeneration's mix: one dropper count of Fig. 4 and one deviant
// count of Fig. 7, both scenarios, through the work-stealing pool.
std::vector<Cell> figure_sweep() {
  std::vector<Cell> out;
  for (const Venue venue : {Venue::Infocom05, Venue::Cambridge06}) {
    for (const bool outsiders : {false, true}) {
      add_all_seeds(out, Protocol::G2GEpidemic, venue, Behavior::Dropper, 20, outsiders);
      for (const Behavior b : {Behavior::Liar, Behavior::Cheater, Behavior::Dropper}) {
        add_all_seeds(out, Protocol::G2GDelegationLastContact, venue, b, 10, outsiders);
      }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"epidemic-droppers", "delegation-deviants",
                                              "vanilla-baselines", "figure-sweep"};
  return names;
}

Workload make_workload(const std::string& name, std::size_t hardware_threads) {
  if (name == "epidemic-droppers") return {name, epidemic_droppers(), 1};
  if (name == "delegation-deviants") return {name, delegation_deviants(), 1};
  if (name == "vanilla-baselines") return {name, vanilla_baselines(), 1};
  if (name == "figure-sweep") {
    return {name, figure_sweep(), std::clamp<std::size_t>(hardware_threads, 1, 4)};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace repro
