#include "pathview/core/sort.hpp"

#include <algorithm>

#include "pathview/support/error.hpp"

namespace pathview::core {

void sort_children_by(View& view, ViewNodeId parent, metrics::ColumnId metric,
                      bool descending) {
  if (metric >= view.table().num_columns())
    throw InvalidArgument("sort_children_by: bad metric column");
  auto& ch = view.mutable_children(parent);
  // One contiguous column read per comparison instead of a row-wise get().
  const std::span<const double> col = view.table().column(metric);
  const auto before = [&](ViewNodeId a, ViewNodeId b) {
    return descending ? col[a] > col[b] : col[a] < col[b];
  };
  if (ch.size() > kInsertionSortMax) {
    std::stable_sort(ch.begin(), ch.end(), before);
    return;
  }
  // Short lists (most of them) get a stable insertion sort: libstdc++'s
  // stable_sort allocates a merge buffer on every call, which dominates
  // sort_built_by over a large CCT view. A stable sort's result is unique,
  // so the order is the same either way.
  for (std::size_t i = 1; i < ch.size(); ++i) {
    const ViewNodeId x = ch[i];
    std::size_t j = i;
    for (; j > 0 && before(x, ch[j - 1]); --j) ch[j] = ch[j - 1];
    ch[j] = x;
  }
}

void sort_built_by(View& view, metrics::ColumnId metric, bool descending) {
  for (ViewNodeId id = 0; id < view.size(); ++id)
    if (view.node(id).children_built && !view.node(id).children.empty())
      sort_children_by(view, id, metric, descending);
}

void sort_children_by_label(View& view, ViewNodeId parent, bool ascending) {
  auto& ch = view.mutable_children(parent);
  std::stable_sort(ch.begin(), ch.end(), [&](ViewNodeId a, ViewNodeId b) {
    const std::string la = view.label(a);
    const std::string lb = view.label(b);
    return ascending ? la < lb : la > lb;
  });
}

}  // namespace pathview::core
