// pvstruct — the hpcstruct analog: lower a workload's program to a binary
// image, recover its static structure, and print it.
//
// Usage: pvstruct <workload> [--addresses] [--no-statements] [--max N]
#include <cstdio>
#include <string>

#include "pathview/structure/dump.hpp"
#include "pathview/workloads/registry.hpp"
#include "tool_util.hpp"

using namespace pathview;

namespace {

const char kUsage[] =
    "usage: pvstruct <workload> [--addresses] [--no-statements] [--max N]\n";

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv, {"addresses", "no-statements"});
  int exit_code = 0;
  if (tools::handle_common_flags(args, "pvstruct", kUsage, &exit_code))
    return exit_code;
  if (args.positional.empty()) return tools::usage_error(kUsage);
  try {
    tools::ObsSession obs_session(args, "pvstruct");
    {
      PV_SPAN("pvstruct.run");
      workloads::Workload w = workloads::make_workload(args.positional[0]);
      structure::DumpOptions opts;
      opts.show_addresses = args.has("addresses");
      opts.show_statements = !args.has("no-statements");
      opts.max_lines = static_cast<std::size_t>(args.flag("max", 0));
      const structure::BinaryImage& img = w.lowering->image();
      std::printf("binary image: %zu procs, %zu line-map entries, "
                  "%zu inline regions, %zu cfg edges\n\n",
                  img.procs().size(), img.lines().size(),
                  img.inline_regions().size(), img.edges().size());
      std::fputs(structure::render_structure(*w.tree, opts).c_str(), stdout);
    }
    obs_session.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvstruct: %s\n", e.what());
    return 1;
  }
}
