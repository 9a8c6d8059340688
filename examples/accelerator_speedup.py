"""Scenario: sizing the LightNobel accelerator for a drug-discovery folding queue.

A lab screening protein complexes wants to know what the LightNobel accelerator
buys over its existing A100/H100 nodes for the Protein Folding Block, and how
the accelerator configuration (number of RMPUs, VVPUs per RMPU) affects that.
This example runs the cycle-level simulator and the GPU analytical model over a
mix of realistic target lengths and prints speedups, bottleneck shares, and the
area/power budget of the chosen design point.

Usage:
    python examples/accelerator_speedup.py
"""

from __future__ import annotations

from repro.analysis import average_speedup, compare_hardware_on_lengths, hardware_dse
from repro.hardware import AreaPowerModel, LightNobelAccelerator, efficiency_versus_gpu
from repro.ppm import PPMConfig

#: A screening queue: monomers, a CASP-sized target and a large complex.
TARGET_LENGTHS = [350, 800, 1410, 2600]


def main() -> None:
    config = PPMConfig.paper()

    print("Folding-block latency: LightNobel vs A100/H100 (chunked and vanilla)")
    comparison = compare_hardware_on_lengths("screening-queue", TARGET_LENGTHS, config=config)
    print(f"  LightNobel average latency: {comparison.lightnobel_seconds:.2f} s")
    for name, factor in sorted(average_speedup(comparison).items()):
        oom = " (OOM on some targets)" if comparison.out_of_memory.get(name) else ""
        print(f"  {name:>18}: {factor:5.2f}x slower than LightNobel{oom}")

    print("\nWhere does the time go on LightNobel? (bottleneck share per engine)")
    accelerator = LightNobelAccelerator(ppm_config=config)
    for engine, share in accelerator.bottleneck_share(1410).items():
        print(f"  {engine:>6}: {share:.1%}")

    print("\nHardware design-space exploration (average over the queue):")
    sweeps = hardware_dse(TARGET_LENGTHS[:2], rmpu_counts=(8, 16, 32, 64), vvpu_counts=(2, 4, 8))
    for point in sweeps["rmpu_sweep"]:
        print(f"  {point.num_rmpus:>3} RMPUs x {point.vvpus_per_rmpu} VVPUs: "
              f"{point.average_latency_seconds:.2f} s")

    print("\nArea / power budget of the paper design point (32 RMPUs, 128 VVPUs):")
    area_power = AreaPowerModel()
    print(f"  total area  : {area_power.total_area_mm2():.1f} mm^2 (28 nm)")
    print(f"  total power : {area_power.total_power_w():.1f} W")
    efficiency = efficiency_versus_gpu(area_power, speedup_over_gpu=average_speedup(comparison))
    for gpu, values in efficiency.items():
        print(f"  vs {gpu}: {values['area_ratio']:.1%} of the area, "
              f"{values['power_ratio']:.1%} of the power, "
              f"{values['power_efficiency_gain']:.1f}x power efficiency")


if __name__ == "__main__":
    main()
