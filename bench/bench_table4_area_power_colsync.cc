/**
 * @file
 * Reproduces Table IV: area and power for PRA-2b with per-column
 * synchronization as a function of the SSR count.
 */

#include <cstdio>
#include <iostream>

#include "energy/area_power.h"
#include "util/args.h"
#include "util/table.h"

using namespace pra;

int
main(int argc, char **argv)
{
    // A closed-form table: --smoke, which every bench takes, changes
    // nothing, and any other flag is a mistake.
    util::ArgParser(argc, argv).checkUnknown({"smoke"}, &std::cout);
    std::printf("== Area and power, column synchronization, PRA-2b ==\n"
                "(reproduces Table IV; see README.md, \"Reproducing "
                "paper figures\")\n\n");

    energy::AreaPower ddn = energy::dadnAreaPower();
    util::TextTable table({"design", "Area U.", "dArea U.", "Area T.",
                           "dArea T.", "Power T.", "dPower T."});
    auto addRow = [&](const energy::AreaPower &ap) {
        table.addRow({ap.design, util::formatDouble(ap.unitArea),
                      util::formatDouble(ap.unitArea / ddn.unitArea),
                      util::formatDouble(ap.chipArea, 0),
                      util::formatDouble(ap.chipArea / ddn.chipArea),
                      util::formatDouble(ap.chipPower, 1),
                      util::formatDouble(ap.chipPower /
                                         ddn.chipPower)});
    };
    addRow(ddn);
    addRow(energy::stripesAreaPower());
    for (int ssrs : {1, 2, 4, 8, 16})
        addRow(energy::pragmaticColumnAreaPower(2, ssrs));
    std::printf("%s\n", table.render().c_str());
    std::printf("Rows 1R/4R/16R are the paper's published anchors; "
                "2R/8R are the\nmodel's linear interpolation (~%.3f "
                "mm^2 per SSR per unit).\n",
                energy::ssrUnitArea());
    return 0;
}
