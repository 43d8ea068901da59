// Application sweep under both correctness probes: every app runs (small
// problem sizes, small machine) with the race Analyzer and the Moviola
// wait-for Detector attached at once, and must come out race-free, with no
// blocked fiber, no finding and no lint.  Gauss under the Uniform System is
// the race detector's acceptance bar; the rest of the suite rides along so
// a change that drops a happens-before edge, leaves a waiter behind, blocks
// while holding a spin lock or charges from a hook anywhere in the stack
// fails here.  Attached probes forfeit the charge fast path, so the sweep
// also drives the fiber-to-fiber handoff under observation.
//
// The sweep is one table registered as one test per app, named
// AppsScan.<App>, so each app passes or fails on its own.
#include <gtest/gtest.h>

#include <algorithm>

#include "analyze/analyze.hpp"
#include "apps/alphabeta.hpp"
#include "apps/connectionist.hpp"
#include "apps/gauss.hpp"
#include "apps/geometry.hpp"
#include "apps/graph.hpp"
#include "apps/hough.hpp"
#include "apps/image.hpp"
#include "apps/mst.hpp"
#include "apps/pedagogical.hpp"
#include "apps/pentominoes.hpp"
#include "apps/sort.hpp"
#include "moviola/wait_graph.hpp"

namespace bfly::analyze {
namespace {

using sim::butterfly1;
using sim::Machine;

/// One app of the sweep: runs it on `m` and checks its result.
struct App {
  const char* name;
  void (*run)(Machine& m, Analyzer& an);
};

const App kApps[] = {
    {"GaussUs",
     [](Machine& m, Analyzer&) {
       apps::GaussConfig cfg;
       cfg.n = 24;
       apps::GaussResult r = apps::gauss_us(m, cfg);
       EXPECT_LT(apps::gauss_error(r, cfg.n, cfg.seed), 1e-9);
     }},
    {"GaussSmp",
     [](Machine& m, Analyzer&) {
       apps::GaussConfig cfg;
       cfg.n = 24;
       apps::GaussResult r = apps::gauss_smp(m, cfg);
       EXPECT_LT(apps::gauss_error(r, cfg.n, cfg.seed), 1e-9);
     }},
    {"Hough",
     [](Machine& m, Analyzer&) {
       apps::HoughConfig cfg;
       cfg.width = 64;
       cfg.height = 64;
       cfg.angles = 45;
       cfg.processors = 8;
       cfg.noise = 50;
       (void)apps::hough(m, cfg);
     }},
    {"OddEvenSort",
     [](Machine& m, Analyzer&) {
       apps::SortConfig cfg;
       cfg.n = 128;
       cfg.processors = 4;
       apps::SortResult r = apps::odd_even_sort(m, cfg);
       EXPECT_TRUE(std::is_sorted(r.keys.begin(), r.keys.end()));
     }},
    {"BitonicSort",
     [](Machine& m, Analyzer&) {
       apps::SortConfig cfg;
       cfg.n = 128;
       cfg.processors = 4;
       apps::SortResult r = apps::bitonic_sort(m, cfg);
       EXPECT_TRUE(std::is_sorted(r.keys.begin(), r.keys.end()));
     }},
    {"BiffApplyAndHistogram",
     [](Machine& m, Analyzer&) {
       const apps::Image img = apps::Image::synthetic(48, 48, 5);
       (void)apps::biff_apply(m, img, apps::filter_invert(), 4);
       (void)apps::biff_histogram(m, img, 4);
     }},
    {"BiffPipeline",
     [](Machine& m, Analyzer&) {
       const apps::Image img = apps::Image::synthetic(48, 48, 6);
       (void)apps::biff_pipeline(
           m, img, {apps::filter_threshold(96), apps::filter_invert()}, 4);
     }},
    {"ConvexHull",
     [](Machine& m, Analyzer&) {
       (void)apps::convex_hull(m, apps::random_points(200, 21), 8);
     }},
    {"ConnectedComponents",
     [](Machine& m, Analyzer& an) {
       // Documented suppression: connected_components uses chaotic
       // relaxation — same-round tasks read neighbour labels while others
       // overwrite them, with no synchronization by design.  Labels move
       // monotonically towards the component minimum and the driver loops
       // to a fixpoint, so a stale read only delays convergence (the result
       // check below proves it).  See the matching comment in
       // src/apps/graph.cpp.
       an.suppress("cc.labels");
       const apps::Graph g = apps::Graph::random(60, 3, 77);
       apps::GraphRunResult r = apps::connected_components(m, g, 8);
       EXPECT_EQ(r.labels, apps::cc_reference(g));
     }},
    {"TransitiveClosure",
     [](Machine& m, Analyzer&) {
       const apps::Graph g = apps::Graph::random(30, 2, 5);
       apps::GraphRunResult r = apps::transitive_closure(m, g, 8);
       EXPECT_EQ(r.value, apps::closure_reference(g));
     }},
    {"SubgraphIso",
     [](Machine& m, Analyzer&) {
       const apps::Graph tri = apps::Graph::cliques(1, 3);
       const apps::Graph host = apps::Graph::cliques(1, 4);
       (void)apps::subgraph_isomorphism(m, tri, host, 8);
     }},
    {"BoruvkaMst",
     [](Machine& m, Analyzer&) {
       const apps::WeightedGraph g = apps::WeightedGraph::random(40, 20, 9);
       apps::MstResult r = apps::boruvka_mst(m, g, 8);
       EXPECT_EQ(r.total_weight, apps::mst_reference(g));
     }},
    {"Queens",
     [](Machine& m, Analyzer&) {
       apps::QueensResult r = apps::queens(m, 6, 8);
       EXPECT_EQ(r.solutions, apps::queens_reference(6));
     }},
    {"KnightsTour",
     [](Machine& m, Analyzer&) { (void)apps::knights_tour(m, 5, 4, 11); }},
    {"Pentominoes",
     [](Machine& m, Analyzer&) {
       apps::PentominoConfig cfg;  // 5x5, FILTY
       (void)apps::pentominoes(m, cfg, 8);
     }},
    {"AlphaBeta",
     [](Machine& m, Analyzer&) {
       apps::GameConfig cfg;
       cfg.depth = 4;
       cfg.branching = 5;
       apps::SearchResult r = apps::alphabeta_parallel(m, cfg, 8);
       EXPECT_EQ(r.value, apps::alphabeta_reference(cfg).value);
     }},
    {"Connectionist",
     [](Machine& m, Analyzer&) {
       apps::ConnectionistConfig cfg;
       cfg.units = 64;
       cfg.fanin = 6;
       cfg.rounds = 2;
       cfg.processors = 4;
       (void)apps::connectionist(m, cfg);
     }},
};

class AppsScan : public testing::Test {
 public:
  explicit AppsScan(const App& app) : app_(app) {}

  void TestBody() override {
    Machine m(butterfly1(8));
    Analyzer an(m);
    moviola::Detector d(m);
    app_.run(m, an);
    EXPECT_EQ(an.races_total(), 0u) << an.report();
    EXPECT_FALSE(m.deadlocked());
    EXPECT_TRUE(d.analyze().empty()) << d.report();
    EXPECT_TRUE(d.lints().empty()) << d.report();
  }

 private:
  const App& app_;
};

const bool kRegistered = [] {
  for (const App& app : kApps) {
    testing::RegisterTest("AppsScan", app.name, nullptr, nullptr, __FILE__,
                          __LINE__,
                          [&app]() -> testing::Test* {
                            return new AppsScan(app);
                          });
  }
  return true;
}();

}  // namespace
}  // namespace bfly::analyze
