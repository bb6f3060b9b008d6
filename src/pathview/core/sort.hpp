// Metric-column sorting (paper Sec. V-A): "Scopes at each level of the
// nesting in the navigation pane are sorted according to the selected
// metric column" — including derived metric columns, the paper's key
// productivity feature. Sorting by the source scopes themselves is also
// supported ("this capability arose from design orthogonality").
#pragma once

#include "pathview/core/view.hpp"

namespace pathview::core {

/// Child lists up to this length are sorted by an allocation-free insertion
/// sort; longer ones by std::stable_sort. Both are stable.
inline constexpr std::size_t kInsertionSortMax = 32;

/// Sort `parent`'s (already built) children by a metric column. Stable:
/// equal values keep their current relative order.
void sort_children_by(View& view, ViewNodeId parent, metrics::ColumnId metric,
                      bool descending = true);

/// Sort every built node's children by a metric column.
void sort_built_by(View& view, metrics::ColumnId metric,
                   bool descending = true);

/// Sort `parent`'s children alphabetically by label.
void sort_children_by_label(View& view, ViewNodeId parent,
                            bool ascending = true);

}  // namespace pathview::core
