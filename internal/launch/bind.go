package launch

import (
	"fmt"
	"strconv"
	"strings"
)

// Placement: when every rank of a job can have a CPU of its own, the
// launcher starts rank r bound to the r-th of N contiguous slices of
// ⌊|S|/N⌋ CPUs of S, its own allowed set. The mask is set on the spawning
// thread and inherited at fork, so the child's Go runtime sizes NumCPU and
// GOMAXPROCS to the slice before its first instruction. Every rank runs on
// this host, so the slice follows the world rank; synthetic -rpn nodes do
// not change it. A job with more ranks than CPUs is left to the kernel.

// placement is where a job's ranks run.
type placement struct {
	slices [][]int // slices[r] is rank r's CPUs; nil leaves every rank unbound
	why    string  // why the job is unbound
}

// placeRanks slices the CPUs this process may run on among n ranks.
func placeRanks(n int) placement {
	cpus, err := allowedCPUs()
	if err != nil {
		return placement{why: err.Error()}
	}
	return sliceCPUs(cpus, n)
}

// sliceCPUs gives each of n ranks ⌊len(cpus)/n⌋ consecutive CPUs of cpus.
func sliceCPUs(cpus []int, n int) placement {
	if n > len(cpus) {
		return placement{why: fmt.Sprintf("%d ranks > %d CPUs", n, len(cpus))}
	}
	k := len(cpus) / n
	pl := placement{slices: make([][]int, n)}
	for r := range pl.slices {
		pl.slices[r] = cpus[r*k : (r+1)*k : (r+1)*k]
	}
	return pl
}

// cpus returns rank r's slice, nil when the job is unbound.
func (pl placement) cpus(r int) []int {
	if pl.slices == nil {
		return nil
	}
	return pl.slices[r]
}

// cpuList renders CPU ids the way /proc's Cpus_allowed_list does: "0-3,6".
func cpuList(cpus []int) string {
	var b strings.Builder
	for i := 0; i < len(cpus); {
		j := i
		for j+1 < len(cpus) && cpus[j+1] == cpus[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(cpus[i]))
		if j > i {
			b.WriteByte('-')
			b.WriteString(strconv.Itoa(cpus[j]))
		}
		i = j + 1
	}
	return b.String()
}
