/**
 * @file
 * Reproduces Table III: area and power for the unit and the whole
 * chip under pallet synchronization, plus the bottom-up component
 * decomposition as a cross-check.
 */

#include <cstdio>
#include <iostream>

#include "energy/area_power.h"
#include "energy/components.h"
#include "util/args.h"
#include "util/table.h"

using namespace pra;

int
main(int argc, char **argv)
{
    // A closed-form table: --smoke, which every bench takes, changes
    // nothing, and any other flag is a mistake.
    util::ArgParser(argc, argv).checkUnknown({"smoke"}, &std::cout);
    std::printf("== Area and power, pallet synchronization ==\n"
                "(reproduces Table III; see README.md, \"Reproducing "
                "paper figures\")\n\n");

    util::TextTable table({"design", "Area U.", "dArea U.", "Area T.",
                           "dArea T.", "Power T.", "dPower T.",
                           "U. est (components)"});
    energy::AreaPower ddn = energy::dadnAreaPower();
    auto addRow = [&](const energy::AreaPower &ap, double estimate) {
        table.addRow({ap.design, util::formatDouble(ap.unitArea),
                      util::formatDouble(ap.unitArea / ddn.unitArea),
                      util::formatDouble(ap.chipArea, 0),
                      util::formatDouble(ap.chipArea / ddn.chipArea),
                      util::formatDouble(ap.chipPower, 1),
                      util::formatDouble(ap.chipPower / ddn.chipPower),
                      util::formatDouble(estimate)});
    };
    addRow(ddn, energy::dadnUnitAreaEstimate());
    addRow(energy::stripesAreaPower(),
           energy::stripesUnitAreaEstimate());
    for (int l = 0; l <= 4; l++)
        addRow(energy::pragmaticPalletAreaPower(l),
               energy::pragmaticUnitAreaEstimate(l));
    std::printf("%s\n", table.render().c_str());
    std::printf("Columns 2-7 are the calibrated model anchored to the "
                "paper's synthesis\nresults (areas mm^2, power W); the "
                "last column is the independent\ngate-level component "
                "estimate of the unit area.\nMemory blocks (NM + SB + "
                "NBin/NBout): %.1f mm^2 across all designs.\n",
                energy::memoryArea());
    return 0;
}
