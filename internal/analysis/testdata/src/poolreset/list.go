package poolreset

import "freelist"

// Structs recycled through a freelist.List are held to reset as a
// sync.Pool's are, whether Put or Get brings them in: each type below
// travels through only one of them.

type putOnly struct {
	a    int
	lost int
}

var putList freelist.List[putOnly]

func putBack(s *putOnly) {
	s.reset()
	putList.Put(s)
}

func (s *putOnly) reset() { s.a = 0 } // want "pooled putOnly.reset does not assign field \"lost\""

type gotOnly struct {
	a    int
	lost []int
}

var gotList freelist.List[gotOnly]

func take() *gotOnly {
	s := gotList.Get()
	s.reset()
	return s
}

func (s *gotOnly) reset() { s.a = 0 } // want "pooled gotOnly.reset does not assign field \"lost\""

var _, _ = putBack, take
