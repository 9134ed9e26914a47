// Command calib is the session benchmark's fixed reference workload: a
// deterministic mix of hashing, sorting and map updates that takes about
// 0.2 s of CPU. The benchmark runs it between measured operations and
// scales their times by how fast it ran, so a shared machine's speed
// drift does not show up as a change in the program. It is not part of
// the program under test, and a change measured against the benchmark
// must not edit it.
package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
)

func main() {
	r := rand.New(rand.NewSource(1))
	buf := make([]byte, 4<<20)
	r.Read(buf)
	var sum [32]byte
	for i := 0; i < 4; i++ {
		sum = sha256.Sum256(buf)
		buf[i] ^= sum[0]
	}
	xs := make([]int, 1<<19)
	for i := range xs {
		xs[i] = r.Int()
	}
	sort.Ints(xs)
	m := map[int]int{}
	for i := 0; i < 1<<18; i++ {
		m[xs[i]&0xfffff] += i
	}
	fmt.Println(sum[0], len(m))
}
