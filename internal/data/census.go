// Package data provides HELIX-Go's dataset substrate: a CSV scanner and
// synthetic generators for the four evaluation workloads (paper §6.2).
// Real datasets (UCI Census Income, PubMed articles, news corpora, MNIST)
// are unavailable offline, so each generator produces a synthetic
// equivalent with the same schema and the statistical structure the
// workflow's operators exercise; see DESIGN.md §4 for the substitution
// argument.
package data

import (
	"math/rand"
	"strconv"
	"strings"
)

// CensusColumns is the attribute schema of the Kohavi census-income
// dataset [35]: 14 demographic attributes plus the binary target.
// The note column stands in for the wide unused payload of real census
// records (free-text enumeration remarks): cheap to generate, large on
// disk. Its presence gives the raw scan output the paper's census
// profile — a big DPR intermediate that is faster to recompute than to
// load, which HELIX OPT therefore declines to materialize (§6.5.2:
// "HELIX OPT avoided materializing the large DPR output").
var CensusColumns = []string{
	"age", "workclass", "fnlwgt", "education", "education_num",
	"marital_status", "occupation", "relationship", "race", "sex",
	"capital_gain", "capital_loss", "hours_per_week", "native_country",
	"note", "target",
}

// noteTemplates are assembled into the note column's filler text.
var noteTemplates = []string{
	"enumerator recorded household response during scheduled visit; respondent confirmed details of employment and residence status without corrections",
	"record transcribed from long-form questionnaire; income fields verified against prior-year filing and adjusted for reporting period boundaries",
	"follow-up interview completed by phone; occupation classification reviewed by supervisor and matched against standard industry coding tables",
	"response collected during initial canvass; household composition cross-checked with administrative rolls and flagged consistent by review",
}

var (
	workclasses   = []string{"Private", "Self-emp", "Federal-gov", "Local-gov", "State-gov", "Without-pay"}
	educations    = []string{"HS-grad", "Some-college", "Bachelors", "Masters", "Doctorate", "11th", "Assoc"}
	maritals      = []string{"Married", "Never-married", "Divorced", "Widowed", "Separated"}
	occupations   = []string{"Tech-support", "Craft-repair", "Sales", "Exec-managerial", "Prof-specialty", "Handlers-cleaners", "Machine-op", "Adm-clerical", "Farming-fishing", "Transport"}
	relationships = []string{"Husband", "Wife", "Own-child", "Not-in-family", "Unmarried"}
	races         = []string{"White", "Black", "Asian-Pac", "Amer-Indian", "Other"}
	sexes         = []string{"Male", "Female"}
	countries     = []string{"United-States", "Mexico", "Philippines", "Germany", "Canada", "India"}
)

// CensusConfig parameterizes the census generator.
type CensusConfig struct {
	// TrainRows and TestRows are the split sizes.
	TrainRows, TestRows int
	// Seed makes generation deterministic.
	Seed int64
	// Replicas duplicates the dataset Replicas times — the paper's
	// "Census 10x is obtained by replicating Census ten times in order to
	// preserve the learning objective" (Figure 7a). 0 or 1 means no
	// replication.
	Replicas int
}

// GenerateCensusCSV renders the train and test splits as CSV strings with
// a header row, mimicking the two CSV files of Figure 3a line 3.
func GenerateCensusCSV(cfg CensusConfig) (train, test string) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	reps := max(cfg.Replicas, 1)
	var body []byte
	gen := func(rows int) string {
		body = body[:0]
		for i := 0; i < rows; i++ {
			body = appendCensusRow(body, rng)
			body = append(body, '\n')
		}
		var b strings.Builder
		b.Grow(len(censusHeader) + reps*len(body))
		b.WriteString(censusHeader)
		for r := 0; r < reps; r++ {
			b.Write(body)
		}
		return b.String()
	}
	return gen(cfg.TrainRows), gen(cfg.TestRows)
}

// censusHeader is the header line of both files.
var censusHeader = strings.Join(CensusColumns, ",") + "\n"

// eduNums[i] is educations[i]'s years of schooling.
var eduNums = []int{9, 10, 13, 14, 16, 7, 12}

// appendCensusRow appends one row whose income label correlates with
// education, age, hours, capital gains, marital status and occupation, so
// that a linear model genuinely has signal to learn.
func appendCensusRow(b []byte, rng *rand.Rand) []byte {
	age := 17 + rng.Intn(63)
	wc := pick(rng, workclasses)
	fnlwgt := 10000 + rng.Intn(700000)
	e := rng.Intn(len(educations))
	edu, eduNum := educations[e], eduNums[e]
	marital := pick(rng, maritals)
	occ := pick(rng, occupations)
	rel := pick(rng, relationships)
	race := pick(rng, races)
	sex := pick(rng, sexes)
	gain := 0
	if rng.Float64() < 0.08 {
		gain = rng.Intn(20000)
	}
	loss := 0
	if rng.Float64() < 0.05 {
		loss = rng.Intn(3000)
	}
	hours := 20 + rng.Intn(60)

	// Latent income score: the signal a model can recover.
	score := -4.0 +
		0.35*float64(eduNum) +
		0.02*float64(age) +
		0.03*float64(hours) +
		0.0002*float64(gain)
	if marital == "Married" {
		score += 1.0
	}
	if occ == "Exec-managerial" || occ == "Prof-specialty" {
		score += 0.8
	}
	score += rng.NormFloat64() * 1.2
	target := "<=50K"
	if score > 2.0 {
		target = ">50K"
	}
	country := pick(rng, countries)
	note := noteTemplates[rng.Intn(len(noteTemplates))]

	b = strconv.AppendInt(b, int64(age), 10)
	b = append(append(b, ','), wc...)
	b = strconv.AppendInt(append(b, ','), int64(fnlwgt), 10)
	b = append(append(b, ','), edu...)
	b = strconv.AppendInt(append(b, ','), int64(eduNum), 10)
	for _, s := range [...]string{marital, occ, rel, race, sex} {
		b = append(append(b, ','), s...)
	}
	for _, n := range [...]int{gain, loss, hours} {
		b = strconv.AppendInt(append(b, ','), int64(n), 10)
	}
	for _, s := range [...]string{country, note, target} {
		b = append(append(b, ','), s...)
	}
	return b
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }
