// Package lib holds one declaration of each kind the reachability check
// must tell apart.
package lib

// I is used through Used's result type. Its unexported seal is never
// called, yet impl must keep it to be an I.
type I interface {
	M() int
	seal()
}

type impl struct{}

func (impl) seal() {}

// M is reached only through I: the program calls M on the I that Used
// returns, and impl flows into it.
func (impl) M() int { return count() }

func count() int { return 1 }

// Used is what the program calls.
func Used() I { return impl{} }

// Unused is exported, and nothing calls it.
func Unused() int { return helper() }

// helper is called only by Unused, so it is as dead as Unused.
func helper() int { return 2 }

// Mode is an iota group; the program uses only ModeA, and the group
// counts as one declaration.
type Mode int

const (
	ModeA Mode = iota
	ModeB
	ModeC
)

// Asserted satisfies I in an assertion and nowhere else. Its method is
// not reported apart from it.
type Asserted struct{}

func (Asserted) M() int { return 3 }

func (Asserted) seal() {}

var _ I = Asserted{}

// Color and its iota group are two declarations nothing uses: the type,
// and the group, reported once by its first name.
type Color int

const (
	Red Color = iota
	Green
)

// Oracle is called by the tests of two packages: a valid allowlist entry.
func Oracle() int { return 1 }

// OneTest is called by one package's tests only: a stale allowlist entry.
func OneTest() int { return 1 }

// Box is reached through NewBox.
type Box struct{ n int }

func NewBox() *Box { return &Box{n: 4} }

// Get is reached by selection: the program calls it.
func (b *Box) Get() int { return b.n }

// Put is a method of a reached type that nothing calls.
func (b *Box) Put(n int) { b.n = n }
