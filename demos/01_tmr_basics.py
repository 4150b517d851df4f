"""Triple-redundant cells from the ground up.

Walks through what a single protected storage element does: bitwise 2-of-3
voting, the discrepancy output, feedback refresh, and the instance-group
double-fault hazard that motivates scrubbing and fast refresh.
"""

from tmrv32.tmr import Domain, TmrCell

print("== bitwise majority voting ==")
voter = TmrCell("demo.vote", Domain.CORE)
voter.set_replicas(0x5A5A5A5A, 0x5A5A5A5A, 0x5A5A5A5A)
print(f"clean replicas vote to 0x{voter.value:08X}, discrepancy={voter.discrepancy}")

voter.set_replicas(0xFFFFFFFF, 0x00000000, 0xFFFFFFFF)
print(f"one corrupt replica: vote 0x{voter.value:08X}, discrepancy={voter.discrepancy}")

# voting is per bit position, not per word: three pairwise-different words still
# produce a well-defined majority in every bit
voter.set_replicas(0b101, 0b011, 0b110)
print(f"0b101/0b011/0b110 vote to 0b{voter.value:03b} (per-bit 2-of-3)")

print()
print("== a protected register cell ==")
cell = TmrCell("demo.reg", Domain.CORE, width=32, value=0xCAFE0000)
cell.flip(replica=1, bit=3)
print(f"after an upset: replicas={tuple(hex(x) for x in cell.replicas)}")
print(f"the voter still reads 0x{cell.value:08X}; downstream logic never sees the flip")

changed = cell.refresh()  # the feedback path runs on every idle clock edge
print(f"feedback refresh repaired it (was discrepant: {changed}): {cell.replicas}")

print()
print("== why latent upsets matter ==")
cell = TmrCell("demo.latent", Domain.CORE, width=8, value=0x0F)
cell.flip(0, 6)
print(f"first upset sits latent: vote still 0x{cell.value:02X}")
cell.flip(1, 6)  # second upset, same bit, different replica: same instance group
print(f"second upset at the same bit defeats the vote: 0x{cell.value:02X} (wrong!)")
cell.refresh()
print(f"refresh now latches the corrupted majority into all replicas: {cell.replicas}")
print("=> state must be refreshed (registers) or scrubbed (SRAM) before a second hit")
