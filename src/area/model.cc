#include "area/model.hh"

#include "common/logging.hh"

namespace pluto::area
{

AreaMm2
AreaBreakdown::total() const
{
    AreaMm2 sum = 0.0;
    for (const auto &[name, a] : components)
        sum += a;
    return sum;
}

double
AreaBreakdown::overheadVs(const AreaBreakdown &base) const
{
    return total() / base.total() - 1.0;
}

AreaModel::AreaModel() = default;

AreaBreakdown
AreaModel::baseline() const
{
    AreaBreakdown b;
    b.components["DRAM Cell"] = cell_;
    b.components["Local WL driver"] = lwlDriver_;
    b.components["Match Logic"] = 0.0;
    b.components["Match Lines"] = 0.0;
    b.components["Sense Amp"] = senseAmp_;
    b.components["Row Decoder"] = rowDecoder_;
    b.components["Column Decoder"] = colDecoder_;
    b.components["Other"] = other_;
    return b;
}

AreaBreakdown
AreaModel::forDesign(core::Design d) const
{
    AreaBreakdown b = baseline();
    b.components["Match Logic"] = matchLogic_;
    b.components["Match Lines"] = matchLines_;
    b.components["Row Decoder"] = rowDecoderPluto_;
    switch (d) {
      case core::Design::Gsa:
        // Matchline-controlled switch: +20% of the SA area.
        b.components["Sense Amp"] = senseAmp_ * 1.20;
        break;
      case core::Design::Bsa:
        // Switch + flip-flop buffer: +60% of the SA area.
        b.components["Sense Amp"] = senseAmp_ * 1.60;
        break;
      case core::Design::Gmc:
        // 2T1C cell: the extra matchline-controlled transistor costs
        // 25% of the cell area; the SA itself is unchanged.
        b.components["DRAM Cell"] = cell_ * 1.25;
        break;
    }
    return b;
}

AreaMm2
AreaModel::plutoChipArea(dram::MemoryKind kind, core::Design d) const
{
    const AreaMm2 ddr4 = forDesign(d).total();
    if (kind == dram::MemoryKind::Ddr4)
        return ddr4;
    // 3DS: the paper reports ~29x higher performance per area than
    // DDR4 at ~1.38x the performance, so the effective area is
    // 29 / 1.38 ~ 21x smaller. We encode that calibration directly.
    return ddr4 / 21.0;
}

} // namespace pluto::area
