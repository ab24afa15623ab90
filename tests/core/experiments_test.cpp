// Integration checks over the experiment registry and the campaign
// catalogue: every figure builds, has the right series, and reproduces
// the paper's qualitative claims. Simulated figures come from their
// catalogue scenario run with ExperimentOptions::quick(), and each is
// byte-compared, as CSV, against its fixture under
// tests/data/golden/figures.
//
// Regenerating the figure fixtures after an INTENDED behaviour change:
//
//   ./build/tests/dq_experiments_test --update-golden
//
// rewrites tests/data/golden/figures/*.csv in place; commit the diff
// alongside the change that caused it. A missing fixture fails the
// test rather than auto-creating.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "campaign/scenarios.hpp"
#include "core/experiments.hpp"

namespace dq::core {
namespace {

bool g_update_golden = false;

const ExperimentOptions& quick() {
  static const ExperimentOptions options = ExperimentOptions::quick();
  return options;
}

/// Simulated figure `id` from the quick catalogue. Each scenario runs
/// once per process, without the cache.
const FigureData& simulated(const std::string& id) {
  static const std::vector<campaign::ScenarioDef> catalogue =
      campaign::builtin_scenarios(quick());
  static std::map<std::string, campaign::CampaignReport> reports;
  for (const campaign::ScenarioDef& scenario : catalogue) {
    for (const campaign::ScenarioFigure& spec : scenario.figures) {
      if (spec.id != id) continue;
      auto it = reports.find(scenario.name);
      if (it == reports.end()) {
        campaign::RunOptions options;
        options.use_cache = false;
        it = reports
                 .emplace(scenario.name,
                          campaign::run_scenarios({scenario}, options))
                 .first;
      }
      for (const FigureData& fig : it->second.figures)
        if (fig.id == id) return fig;
      throw std::runtime_error("scenario " + scenario.name +
                               " did not build " + id);
    }
  }
  throw std::logic_error("no catalogue scenario defines " + id);
}

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void check_golden(const std::string& id) {
  const std::string fresh = render_csv(simulated(id));
  const std::filesystem::path path =
      std::filesystem::path(DQ_GOLDEN_DIR) / "figures" / (id + ".csv");
  if (g_update_golden) {
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << fresh;
    return;
  }
  const std::optional<std::string> golden = read_file(path);
  ASSERT_TRUE(golden.has_value())
      << path << " is missing — run dq_experiments_test --update-golden "
      << "and commit the fixture";
  EXPECT_EQ(fresh, *golden)
      << id << " diverged from its fixture. If the behaviour change is "
      << "intended, regenerate with dq_experiments_test --update-golden "
      << "and commit the diff.";
}

TEST(FigureGolden, Fig1b) { check_golden("fig1b"); }
TEST(FigureGolden, Fig4) { check_golden("fig4"); }
TEST(FigureGolden, Fig5) { check_golden("fig5"); }
TEST(FigureGolden, Fig6) { check_golden("fig6"); }
TEST(FigureGolden, Fig8a) { check_golden("fig8a"); }
TEST(FigureGolden, Fig8b) { check_golden("fig8b"); }
TEST(FigureGolden, Fig11) { check_golden("fig11"); }

TEST(Experiments, Fig1aHubBeatsLeafDeployment) {
  const FigureData fig = fig1a_star_analytical();
  ASSERT_EQ(fig.series.size(), 4u);
  const double t_none = fig.find("no-RL").time_to_reach(0.6);
  const double t_leaf = fig.find("30%-leaf-RL").time_to_reach(0.6);
  const double t_hub = fig.find("hub-RL").time_to_reach(0.6);
  EXPECT_LT(t_none, t_leaf);
  // The paper's ratio: hub RL ≈ 3x slower than 30% leaf RL to 60%.
  EXPECT_NEAR(t_hub / t_leaf, 3.0, 0.5);
}

TEST(Experiments, Fig1bSimulationAgreesDirectionally) {
  const FigureData& fig = simulated("fig1b");
  const double t_none = fig.find("no-RL").time_to_reach(0.6);
  const double t_leaf = fig.find("30%-leaf-RL").time_to_reach(0.6);
  const double t_hub = fig.find("hub-RL").time_to_reach(0.6);
  ASSERT_GT(t_none, 0.0);
  EXPECT_GE(t_leaf, t_none * 0.9);
  EXPECT_GT(t_hub, t_leaf * 1.5);
}

TEST(Experiments, Fig2LinearSlowdownLaw) {
  const FigureData fig = fig2_host_analytical();
  ASSERT_EQ(fig.series.size(), 5u);
  const double t0 = fig.find("no-RL").time_to_reach(0.5);
  const double t50 = fig.find("50%-hosts").time_to_reach(0.5);
  const double t100 = fig.find("100%-hosts").time_to_reach(0.5);
  EXPECT_NEAR(t50 / t0, 2.0, 0.1);     // λ halves
  EXPECT_GT(t100 / t0, 50.0);          // the 100% cliff
}

TEST(Experiments, Fig3EdgeRouterClaims) {
  const FigureData across = fig3a_edge_across_subnets();
  const FigureData within = fig3b_edge_within_subnet();
  // Within a subnet, RL leaves the local-preferential worm untouched.
  const double t_lp_norl = within.find("no-RL-localpref").time_to_reach(0.9);
  const double t_lp_rl = within.find("localpref-RL").time_to_reach(0.9);
  EXPECT_NEAR(t_lp_norl, t_lp_rl, 1e-9);
  // Across subnets, the random worm is slowed at least as much.
  const double t_lp = across.find("localpref-RL").time_to_reach(0.2);
  const double t_rand = across.find("random-RL").time_to_reach(0.2);
  EXPECT_LT(t_lp, t_rand);
}

TEST(Experiments, Fig4BackboneWinsBigger) {
  const FigureData& fig = simulated("fig4");
  const double t_none = fig.find("no-RL").time_to_reach(0.5);
  const double t_host = fig.find("5%-host-RL").time_to_reach(0.5);
  const double t_edge = fig.find("edge-RL").time_to_reach(0.5);
  const double t_backbone = fig.find("backbone-RL").time_to_reach(0.5);
  ASSERT_GT(t_none, 0.0);
  ASSERT_GT(t_backbone, 0.0);
  EXPECT_NEAR(t_host, t_none, t_none * 0.3);  // 5% hosts ≈ negligible
  EXPECT_GT(t_edge, t_none);                  // slight improvement
  EXPECT_GT(t_backbone / t_none, 3.0);        // paper: ~5x
  EXPECT_LT(t_backbone / t_none, 9.0);
}

TEST(Experiments, Fig5EdgeVsLocalPreferential) {
  const FigureData& fig = simulated("fig5");
  const double t_r0 = fig.find("no-RL-random").time_to_reach(0.5);
  // A rate-limited curve that never crosses 50% inside the horizon is
  // the strongest possible slowdown — clamp to the horizon instead of
  // letting the -1 sentinel wreck the ratio (the quick profile's 3
  // runs sit right at this margin).
  double t_r1 = fig.find("edge-RL-random").time_to_reach(0.5);
  if (t_r1 < 0.0) t_r1 = fig.find("edge-RL-random").back_time();
  const double t_l0 = fig.find("no-RL-localpref").time_to_reach(0.5);
  const double t_l1 = fig.find("edge-RL-localpref").time_to_reach(0.5);
  ASSERT_GT(t_r0, 0.0);
  ASSERT_GT(t_l0, 0.0);
  EXPECT_GT(t_r1 / t_r0, 1.25);        // random worm slowed materially
  EXPECT_NEAR(t_l1 / t_l0, 1.0, 0.15); // local-pref barely touched
}

TEST(Experiments, Fig6BackboneContainsLocalPref) {
  const FigureData& fig = simulated("fig6");
  const double t_none = fig.find("no-RL-localpref").time_to_reach(0.5);
  const double t_host5 = fig.find("5%-host-RL").time_to_reach(0.5);
  const double t_backbone = fig.find("backbone-RL").time_to_reach(0.5);
  ASSERT_GT(t_none, 0.0);
  EXPECT_GT(fig.find("no-RL-localpref").back_value(), 0.9);
  // 5% host filtering is nearly indistinguishable from no RL.
  EXPECT_NEAR(t_host5, t_none, t_none * 0.5);
  // Backbone limiting delays the epidemic substantially.
  const double t_backbone_eff =
      t_backbone < 0.0 ? fig.find("backbone-RL").back_time() : t_backbone;
  EXPECT_GT(t_backbone_eff, t_none * 1.8);
  // And at the no-RL worm's own t90, the backbone run is far behind.
  const double t90_none = fig.find("no-RL-localpref").time_to_reach(0.9);
  EXPECT_LT(fig.find("backbone-RL").interpolate(t90_none), 0.55);
}

TEST(Experiments, Fig7ImmunizationOrdering) {
  const FigureData fig = fig7a_immunization_analytical();
  ASSERT_EQ(fig.series.size(), 4u);
  // Earlier immunization keeps the active peak lower.
  EXPECT_LT(fig.find("immunize-at-20%").max_value(),
            fig.find("immunize-at-50%").max_value());
  EXPECT_LT(fig.find("immunize-at-50%").max_value(),
            fig.find("immunize-at-80%").max_value());
  const FigureData rl = fig7b_immunization_ratelimited_analytical();
  EXPECT_LT(rl.find("immunize-at-tick-6").max_value(),
            rl.find("immunize-at-tick-10").max_value());
  // Rate limiting keeps every immunized peak below Fig 7(a)'s 20% case.
  EXPECT_LT(rl.find("immunize-at-tick-6").max_value(),
            fig.find("immunize-at-20%").max_value());
}

TEST(Experiments, Fig8EverInfectedNumbers) {
  const FigureData& a = simulated("fig8a");
  EXPECT_NEAR(a.find("immunize-at-20%").back_value(), 0.80, 0.10);
  EXPECT_NEAR(a.find("immunize-at-50%").back_value(), 0.90, 0.07);
  EXPECT_NEAR(a.find("immunize-at-80%").back_value(), 0.98, 0.05);

  const FigureData& b = simulated("fig8b");
  // Rate limiting lowers the 20%-trigger total vs Figure 8(a).
  double b20 = -1.0;
  for (const NamedSeries& s : b.series)
    if (s.label.find("t(20%)") != std::string::npos)
      b20 = s.series.back_value();
  ASSERT_GE(b20, 0.0);
  EXPECT_LT(b20, a.find("immunize-at-20%").back_value());
}

TEST(Experiments, Fig9CdfShapes) {
  const trace::Trace department = make_department_trace(quick());
  const FigureData normal = fig9a_normal_client_cdf(department);
  const FigureData worm = fig9b_worm_host_cdf(department);
  ASSERT_EQ(normal.series.size(), 3u);
  ASSERT_EQ(worm.series.size(), 3u);
  // Normal clients: nearly all windows under 100 contacts.
  EXPECT_GT(normal.find("distinct-IPs").interpolate(100.0), 0.999);
  // Worm hosts: far heavier; at 10 contacts the CDF is much lower.
  EXPECT_LT(worm.find("distinct-IPs").interpolate(10.0),
            normal.find("distinct-IPs").interpolate(10.0));
  // Refinements help normal clients but not worms.
  EXPECT_GE(normal.find("no-prior-no-DNS").interpolate(4.0),
            normal.find("distinct-IPs").interpolate(4.0));
}

TEST(Experiments, Fig10Ordering) {
  const FigureData fig = fig10_trace_rates_analytical();
  const double t_none = fig.find("no-RL").time_to_reach(0.5);
  const double t_host = fig.find("host-RL").time_to_reach(0.5);
  const double t_ip = fig.find("edge-RL-1:6-ip").time_to_reach(0.5);
  const double t_dns = fig.find("edge-RL-1:2-dns").time_to_reach(0.5);
  EXPECT_LT(t_none, t_host);
  EXPECT_LT(t_host, t_ip);
  EXPECT_LT(t_ip, t_dns);
}

TEST(Experiments, TraceStudyReportMentionsKeyFindings) {
  const trace::Trace department = make_department_trace(quick());
  const std::string report = trace_study_report(department);
  EXPECT_NE(report.find("normal clients"), std::string::npos);
  EXPECT_NE(report.find("p2p clients"), std::string::npos);
  EXPECT_NE(report.find("blaster"), std::string::npos);
  EXPECT_NE(report.find("welchia"), std::string::npos);
  EXPECT_NE(report.find("throttle replay"), std::string::npos);
}

}  // namespace
}  // namespace dq::core

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      dq::core::g_update_golden = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
