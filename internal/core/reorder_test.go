package core

import (
	"time"

	"mpicd/internal/fabric"
)

// ReorderOptions returns opt with every rank's NIC wrapped in a fault plan
// that reorders half its packets — FaultNIC's seeded Reorder rule holds a
// packet and sends it after the next one — and with Reliable on: an unacked
// worker drops a fragment that arrives before its message's first, and a
// held last packet goes out only with the next send, a retransmission at
// worst. It is exported for the external test package.
func ReorderOptions(opt Options, seed int64) Options {
	opt.UCP.Reliable = true
	opt.UCP.RexmitBase = time.Millisecond
	opt.UCP.RexmitMax = 20 * time.Millisecond
	opt.UCP.RexmitRetries = 200
	opt.WrapNIC = func(rank int, nic fabric.NIC) fabric.NIC {
		return fabric.WrapFault(nic, fabric.FaultPlan{Seed: seed + int64(rank), Rules: []fabric.FaultRule{
			{Peer: -1, Action: fabric.Reorder, Prob: 0.5},
		}})
	}
	return opt
}
