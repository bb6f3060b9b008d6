// Shared helpers for pathview tests.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "pathview/core/view.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/prof/cct.hpp"

namespace pathview::testutil {

/// Bit-identical CCT comparison: same node ids, shapes, and sample doubles.
inline void expect_identical(const prof::CanonicalCct& a,
                             const prof::CanonicalCct& b) {
  ASSERT_EQ(a.size(), b.size());
  for (prof::CctNodeId id = 0; id < a.size(); ++id) {
    const prof::CctNode& x = a.node(id);
    const prof::CctNode& y = b.node(id);
    EXPECT_EQ(x.kind, y.kind) << "node " << id;
    EXPECT_EQ(x.parent, y.parent) << "node " << id;
    EXPECT_EQ(x.scope, y.scope) << "node " << id;
    EXPECT_EQ(x.call_site, y.call_site) << "node " << id;
    EXPECT_EQ(x.children, y.children) << "node " << id;
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      EXPECT_EQ(a.samples(id).v[e], b.samples(id).v[e])
          << "node " << id << " event " << e;
  }
}

/// Find the (first) child of `parent` whose label matches; fails the test
/// and returns kViewNull when absent.
inline core::ViewNodeId child_labeled(core::View& v, core::ViewNodeId parent,
                                      const std::string& label) {
  for (core::ViewNodeId c : v.children_of(parent))
    if (v.label(c) == label) return c;
  ADD_FAILURE() << "no child labeled '" << label << "' under '"
                << v.label(parent) << "'";
  return core::kViewNull;
}

/// Child with a given label and role.
inline core::ViewNodeId child_labeled(core::View& v, core::ViewNodeId parent,
                                      const std::string& label,
                                      core::NodeRole role) {
  for (core::ViewNodeId c : v.children_of(parent))
    if (v.node(c).role == role && v.label(c) == label) return c;
  ADD_FAILURE() << "no child labeled '" << label << "' with role under '"
                << v.label(parent) << "'";
  return core::kViewNull;
}

/// Inclusive / exclusive cycle value of a view node (requires the view's
/// table to carry the attribution's column layout, cycles first).
inline double incl_cyc(const core::View& v, core::ViewNodeId n,
                       const metrics::Attribution& a) {
  return v.table().get(a.cols.inclusive(model::Event::kCycles), n);
}
inline double excl_cyc(const core::View& v, core::ViewNodeId n,
                       const metrics::Attribution& a) {
  return v.table().get(a.cols.exclusive(model::Event::kCycles), n);
}

}  // namespace pathview::testutil
