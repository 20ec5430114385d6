package helix

import (
	"reflect"
	"testing"
)

// TestConfigTokenCoversIdentity is what the fingerprintfields waivers on
// the old configuration structs used to promise, proved instead of
// annotated: perturbing any single field of identity — found by
// reflection, so a field added later is covered without touching this
// test — changes the plan-cache conditioning token.
func TestConfigTokenCoversIdentity(t *testing.T) {
	cfg := defaultConfig()
	base := cfg.identity()
	baseToken := configToken(base)
	fields := 0
	var walk func(v reflect.Value, path string, id *identity)
	walk = func(v reflect.Value, path string, id *identity) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				walk(f, name+".", id)
				continue
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			case reflect.String:
				f.SetString(f.String() + "x")
			default:
				t.Fatalf("identity field %s has kind %s, which this walk cannot perturb: extend it", name, f.Kind())
			}
			fields++
			if got := configToken(*id); got == baseToken {
				t.Errorf("changing identity field %s left the config token at %q", name, got)
			}
			*id = base
		}
	}
	id := base
	walk(reflect.ValueOf(&id).Elem(), "", &id)
	if fields < 6 {
		t.Fatalf("walk perturbed %d identity fields, want at least the 6 the token has always covered", fields)
	}
}

// TestIdentityFollowsOptions: each option that plan reuse must be
// conditioned on moves the token, and one that must not (the observer)
// leaves it alone.
func TestIdentityFollowsOptions(t *testing.T) {
	token := func(opts ...Option) string {
		cfg := defaultConfig()
		if err := cfg.apply(opts, true); err != nil {
			t.Fatal(err)
		}
		return configToken(cfg.identity())
	}
	base := token()
	for name, o := range map[string]Option{
		"WithPolicy":        WithPolicy(PolicyAlways),
		"WithStorageBudget": WithStorageBudget(1 << 20),
		"WithOMPThreshold":  WithOMPThreshold(3),
		"WithDomain":        WithDomain("nlp"),
		"WithParallelism":   WithParallelism(3),
		"WithWorkerClass":   WithWorkerClass(WorkerCompute, 3),
		"WithAdaptive":      WithAdaptive(0.5),
	} {
		if token(o) == base {
			t.Errorf("%s did not change the config token %q", name, base)
		}
	}
	if got := token(WithObserver(func(RunEvent) {}), WithStorageBudget(0)); got != base {
		t.Errorf("observer + default budget changed the token: %q → %q", base, got)
	}
}
