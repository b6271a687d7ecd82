package crossbar

import (
	"math/bits"

	"github.com/reprolab/hirise/internal/topo"
)

// LRGKernel is a stock LRG crossbar, the switch New builds, reduced to
// the state its arbitration reads, for cycle loops that arbitrate in
// place instead of through Switch.Arbitrate: sim.Run on a plain
// crossbar, and every router of a fabric built from plain crossbars.
// Its grants equal Switch.Arbitrate's, in the same ascending output
// order, for the same requests and releases.
//
// LRG priority is a (last-grant stamp, index) key per (output, input)
// instead of an order list: the minimum key over a column's requestors
// is exactly the list-LRG winner (all stamps start equal, and an update
// gives the winner a stamp strictly greater than every other, i.e.
// moves it to the end of the order without disturbing the rest), and
// the list splice on every grant becomes one stamp write.
//
// A cycle is Request for each requesting input, then Arbitrate, then
// Release for each connection that finished. Request applies the
// crossbar's participation rule as it records: inputs still holding a
// connection and busy outputs do not take part.
type LRGKernel struct {
	n, words int
	held     []int32  // [in]: output held by input, or -1
	outIn    []int32  // [out]: input holding output, or -1
	stamp    []int64  // [out*n + in]: last-grant stamp
	clock    []int64  // [out]: per-column stamp clock
	mask     []uint64 // [out*words + w]: column request bitsets
	dirty    []uint64 // columns with requests this cycle
}

// NewLRGKernels returns count independent radix-port kernels whose
// state is carved from six shared slabs, so a fabric of many routers
// pays six allocations, not six per router.
func NewLRGKernels(count, radix int) []LRGKernel {
	words := (radix + 63) / 64
	ks := make([]LRGKernel, count)
	ports := make([]int32, 2*count*radix)
	for i := range ports {
		ports[i] = -1
	}
	stamps := make([]int64, count*(radix*radix+radix))
	masks := make([]uint64, count*(radix*words+words))
	for i := range ks {
		k := &ks[i]
		k.n, k.words = radix, words
		k.held, ports = ports[:radix:radix], ports[radix:]
		k.outIn, ports = ports[:radix:radix], ports[radix:]
		k.stamp, stamps = stamps[:radix*radix:radix*radix], stamps[radix*radix:]
		k.clock, stamps = stamps[:radix:radix], stamps[radix:]
		k.mask, masks = masks[:radix*words:radix*words], masks[radix*words:]
		k.dirty, masks = masks[:words:words], masks[words:]
	}
	return ks
}

// Request records input in's request for output out. It is branchless:
// the eligibility bit (output free, input holding nothing) multiplies
// into the mask ORs, because its direction is data-random and as a
// branch it would mispredict constantly.
func (k *LRGKernel) Request(in, out int) {
	bit := uint64(uint32(k.outIn[out])>>31) & uint64(uint32(k.held[in])>>31)
	k.mask[out*k.words+in>>6] |= bit << (uint(in) & 63)
	k.dirty[out>>6] |= bit << (uint(out) & 63)
}

// Arbitrate grants every requested column to its least recently granted
// requestor, in ascending output order, appends the grants to grants
// and returns it. The scan consumes the requests: masks and dirty words
// are zeroed on data already in cache, so the next cycle starts clean.
func (k *LRGKernel) Arbitrate(grants []topo.Grant) []topo.Grant {
	n := k.n
	for w, word := range k.dirty {
		for word != 0 {
			out := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			st := k.stamp[out*n : (out+1)*n]
			win, best := -1, int64(1)<<62
			if k.words == 1 {
				cword := k.mask[out]
				k.mask[out] = 0
				for cword != 0 {
					in := bits.TrailingZeros64(cword)
					cword &= cword - 1
					if key := st[in]<<32 | int64(in); key < best {
						best, win = key, in
					}
				}
			} else {
				col := k.mask[out*k.words : (out+1)*k.words]
				for cw, cword := range col {
					for cword != 0 {
						in := cw<<6 | bits.TrailingZeros64(cword)
						cword &= cword - 1
						if key := st[in]<<32 | int64(in); key < best {
							best, win = key, in
						}
					}
					col[cw] = 0
				}
			}
			k.clock[out]++
			st[win] = k.clock[out]
			k.held[win] = int32(out)
			k.outIn[out] = int32(win)
			grants = append(grants, topo.Grant{In: win, Out: out})
		}
		k.dirty[w] = 0
	}
	return grants
}

// Busy reports whether output out carries a connection: a request for
// it is ignored until it is released.
func (k *LRGKernel) Busy(out int) bool { return k.outIn[out] >= 0 }

// Release frees the connection held by input in after its last flit and
// returns the output it held, or -1 (a no-op) if in holds nothing.
func (k *LRGKernel) Release(in int) int {
	out := int(k.held[in])
	if out >= 0 {
		k.held[in] = -1
		k.outIn[out] = -1
	}
	return out
}
